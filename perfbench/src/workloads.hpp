#pragma once

#include "report.hpp"

namespace perfbench {

/// stream_fleet (`fleet` = true) or stream_narrow.
void run_stream_workload(const Args& args, bool fleet, Result& result);

/// fl_train_serve.
void run_fl_workload(const Args& args, Result& result);

}  // namespace perfbench
