#pragma once
/**
 * @file
 * Per-CTA shared memory: functional storage plus the 32-bank conflict
 * model that determines access latency.
 */

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/logging.h"
#include "isa/instruction.h"

namespace tcsim {

/**
 * Bank-conflict degree of one warp-wide shared access: the maximum
 * number of *distinct* 32-bit words any single bank must serve
 * (lanes reading the same word broadcast).  1 = conflict free.
 * Accesses wider than 4 bytes are split into 4-byte phases, matching
 * hardware behaviour for LDS.64/LDS.128; every phase has the same
 * degree, and the caller charges one pass per phase.
 */
int shared_bank_conflict_degree(const Instruction& inst, int num_banks = 32,
                                int iter = 0);

/** Functional shared-memory array for one CTA. */
class SharedMemoryStorage
{
  public:
    explicit SharedMemoryStorage(uint32_t bytes) : data_(bytes, 0) {}

    uint32_t size() const { return static_cast<uint32_t>(data_.size()); }

    void write(uint64_t addr, const void* src, size_t bytes)
    {
        TCSIM_CHECK(addr + bytes <= data_.size());
        std::memcpy(data_.data() + addr, src, bytes);
    }

    void read(uint64_t addr, void* dst, size_t bytes) const
    {
        TCSIM_CHECK(addr + bytes <= data_.size());
        std::memcpy(dst, data_.data() + addr, bytes);
    }

  private:
    std::vector<uint8_t> data_;
};

}  // namespace tcsim
