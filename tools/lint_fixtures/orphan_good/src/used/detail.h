#pragma once

namespace used {
inline int helper() { return 0; }
}  // namespace used
