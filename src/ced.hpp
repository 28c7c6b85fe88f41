#pragma once

/// Umbrella header for the bounded-latency concurrent-error-detection
/// library (reproduction of Almukhaizim/Drineas/Makris, DATE 2004).
/// Pull in everything; fine-grained headers remain available for
/// compile-time-sensitive consumers.

// Structured status/result types shared by every layer, and the
// thread-pool-free parallel-for used by the hot paths.
#include "common/parallel.hpp"
#include "common/status.hpp"

// Logic substrate: cubes/covers, the two-level minimizer, netlists,
// optimization, factoring, areas.
#include "logic/area.hpp"
#include "logic/bitvec.hpp"
#include "logic/cover.hpp"
#include "logic/cube.hpp"
#include "logic/factor.hpp"
#include "logic/minimize.hpp"
#include "logic/netlist.hpp"
#include "logic/opt.hpp"
#include "logic/synth.hpp"
#include "logic/truth_table.hpp"

// KISS2 + FSM substrate.
#include "fsm/analysis.hpp"
#include "fsm/encoded.hpp"
#include "fsm/encoding.hpp"
#include "fsm/fsm.hpp"
#include "fsm/minimize_states.hpp"
#include "fsm/synthesize.hpp"
#include "kiss/kiss.hpp"

// Fault simulation substrate.
#include "sim/fault_sim.hpp"
#include "sim/faults.hpp"

// LP solver.
#include "lp/simplex.hpp"

// Observability: metrics registry, span tracer, exporters.
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

// The paper's contribution and its extensions.
#include "core/algorithm1.hpp"
#include "core/area_aware.hpp"
#include "core/convolutional.hpp"
#include "core/duplication.hpp"
#include "core/erroneous_case.hpp"
#include "core/extract.hpp"
#include "core/greedy.hpp"
#include "core/ilp.hpp"
#include "core/latency.hpp"
#include "core/parity.hpp"
#include "core/parity_synth.hpp"
#include "core/pipeline.hpp"
#include "core/resilience.hpp"
#include "core/run.hpp"

// Sequential proof of the bound: the fault-injection campaign engine
// (library ced_campaign).
#include "sim/campaign.hpp"
