#include "used/api.h"

namespace used {
int answer() { return 0; }
}  // namespace used
