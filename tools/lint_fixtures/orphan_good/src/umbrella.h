// Directly in src/, outside every module: exempt like src/dde.h.
#pragma once

#include "used/api.h"
