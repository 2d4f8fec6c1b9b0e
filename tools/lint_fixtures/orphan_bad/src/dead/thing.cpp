#include "dead/thing.h"

namespace dead {
int thing() { return 1; }
}  // namespace dead
