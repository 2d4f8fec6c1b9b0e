#pragma once

namespace used {
int answer();
}  // namespace used
