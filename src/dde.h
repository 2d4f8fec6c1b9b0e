// Umbrella header: the whole decision-driven-execution library.
//
// Prefer including the specific module headers in production code; this
// header exists for examples, experiments, and quick starts.
#pragma once

#include "athena/config.h"       // IWYU pragma: export
#include "athena/directory.h"    // IWYU pragma: export
#include "athena/messages.h"     // IWYU pragma: export
#include "athena/metrics.h"      // IWYU pragma: export
#include "athena/node.h"         // IWYU pragma: export
#include "cache/ttl_cache.h"     // IWYU pragma: export
#include "common/ids.h"          // IWYU pragma: export
#include "common/rng.h"          // IWYU pragma: export
#include "common/sim_time.h"     // IWYU pragma: export
#include "common/stats.h"        // IWYU pragma: export
#include "common/tristate.h"     // IWYU pragma: export
#include "coverage/set_cover.h"  // IWYU pragma: export
#include "decision/estimator.h"  // IWYU pragma: export
#include "decision/expression.h" // IWYU pragma: export
#include "decision/label.h"      // IWYU pragma: export
#include "decision/metadata.h"   // IWYU pragma: export
#include "decision/ordering.h"   // IWYU pragma: export
#include "decision/planner.h"    // IWYU pragma: export
#include "des/periodic.h"        // IWYU pragma: export
#include "des/simulator.h"       // IWYU pragma: export
#include "fusion/belief.h"       // IWYU pragma: export
#include "fusion/corroboration.h" // IWYU pragma: export
#include "fusion/reliability.h"  // IWYU pragma: export
#include "naming/name.h"         // IWYU pragma: export
#include "naming/prefix_index.h" // IWYU pragma: export
#include "net/network.h"         // IWYU pragma: export
#include "net/topology.h"        // IWYU pragma: export
#include "pubsub/utility.h"      // IWYU pragma: export
#include "sched/lvf.h"           // IWYU pragma: export
#include "sched/multichannel.h"  // IWYU pragma: export
#include "scenario/route_scenario.h"   // IWYU pragma: export
#include "scenario/trigger_scenario.h" // IWYU pragma: export
#include "workflow/mining.h"     // IWYU pragma: export
#include "workflow/workflow.h"   // IWYU pragma: export
#include "world/dynamics.h"      // IWYU pragma: export
#include "world/evidence.h"      // IWYU pragma: export
#include "world/grid_map.h"      // IWYU pragma: export
#include "world/scalar.h"        // IWYU pragma: export
#include "world/sensor_field.h"  // IWYU pragma: export
