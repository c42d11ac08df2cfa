#pragma once
/**
 * @file
 * Host CPU count for sizing batch parallelism (the simrunner --jobs
 * default).
 */

namespace tcsim {

/** CPUs the calling thread may run on, never less than 1.  On Linux
 *  this counts the sched_getaffinity mask, so a `taskset`-pinned run
 *  sizes itself to its pinned set instead of the whole host;
 *  elsewhere it falls back to std::thread::hardware_concurrency(). */
int usable_cpus();

}  // namespace tcsim
