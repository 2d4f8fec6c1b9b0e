// Only a test includes this header, so no run reaches it.
#pragma once

namespace dead {
int thing();
}  // namespace dead
