#pragma once

#include "used/detail.h"

namespace used {
int answer();
}  // namespace used
