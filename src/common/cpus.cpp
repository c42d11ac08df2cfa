#include "common/cpus.h"

#include <thread>

#ifdef __linux__
#include <sched.h>
#endif

namespace tcsim {

int
usable_cpus()
{
#ifdef __linux__
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        int n = CPU_COUNT(&set);
        if (n > 0)
            return n;
    }
#endif
    unsigned hc = std::thread::hardware_concurrency();
    return hc > 0 ? static_cast<int>(hc) : 1;
}

}  // namespace tcsim
