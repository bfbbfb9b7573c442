#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>

#include "harness.h"
#include "util/status.h"

namespace perfbench {

/// tp1_steady, crash_ondemand and read_mostly_mvcc (single_db.cc).
bool IsSingleDbWorkload(const std::string& name);
mmdb::Status RunSingleDb(const RunArgs& args, RunOutcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
