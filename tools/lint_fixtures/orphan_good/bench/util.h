// Resolved against bench/, the including file's directory.
#pragma once

#include "used/api.h"
