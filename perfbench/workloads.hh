/**
 * @file
 * The benchmark's three workloads. Each builds its inputs from
 * Args::seed, measures for Args::seconds, checks the program's
 * outputs (every failed check is a failed operation), and fills the
 * end-to-end metrics (untraced run) or the per-layer metrics (traced
 * run) of its Result.
 */

#ifndef LEGO_PERFBENCH_WORKLOADS_HH
#define LEGO_PERFBENCH_WORKLOADS_HH

#include "common.hh"

namespace perfbench
{

Result runGenFig10(const Args &args);
Result runDseExplore(const Args &args);
Result runServeBatch(const Args &args);

} // namespace perfbench

#endif // LEGO_PERFBENCH_WORKLOADS_HH
