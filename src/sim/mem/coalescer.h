#pragma once
/**
 * @file
 * Memory access coalescer: collapses the 32 per-lane addresses of a
 * warp-wide load/store into the set of distinct 32-byte sectors it
 * touches, the granularity at which Volta's L1 moves data.
 */

#include <cstdint>
#include <vector>

#include "isa/instruction.h"

namespace tcsim {

/** Coalesce one warp-wide access into sorted unique sector addresses
 *  (byte address of each sector start), replacing the contents of
 *  @p out (its capacity is reused, so a caller that keeps the buffer
 *  allocates nothing per instruction).  @p iter is the loop iteration
 *  the instruction issued at; @p sector_bytes must be a power of
 *  two. */
void coalesce_sectors(const Instruction& inst, int sector_bytes, int iter,
                      std::vector<uint64_t>* out);

/** Convenience form returning a fresh vector. */
std::vector<uint64_t> coalesce_sectors(const Instruction& inst,
                                       int sector_bytes = 32, int iter = 0);

}  // namespace tcsim
