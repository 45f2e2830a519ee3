// Federated server: the root of an aggregation tree.  All round logic
// (validate → clip → quorum → FedAvg → advance) lives in fl::Aggregator —
// see fl/aggregator.hpp; Server is the name the flat (one-level) topology
// and the drivers use for the root node.
#pragma once

#include "fl/aggregator.hpp"

namespace evfl::fl {

using Server = Aggregator;

}  // namespace evfl::fl
