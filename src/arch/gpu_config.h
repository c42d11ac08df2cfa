#pragma once
/**
 * @file
 * GPU architecture configuration presets.
 *
 * Models the resources the paper's experiments exercise: the Titan V
 * (Volta, CUDA capability 7.0) used for all validation runs and the
 * RTX 2080 (Turing) used for the instruction-level analysis.
 */

#include <cstdint>
#include <string>

namespace tcsim {

/** GPU architecture generation. */
enum class Arch { kVolta, kTuring };

/** Tensor core numeric operating mode. */
enum class TcMode {
    kFp16,    ///< A,B,C,D all FP16 ("HMMA.884.F16.F16").
    kMixed,   ///< A,B FP16; C,D FP32 ("HMMA.884.F32.F32").
    kInt8,    ///< Turing: A,B INT8; C,D INT32.
    kInt4,    ///< Turing: A,B INT4; C,D INT32.
};

/** Returns a short human-readable mode name. */
const char* tc_mode_name(TcMode mode);

/**
 * Architecture + resource description of one GPU.
 *
 * Field values for the presets follow NVIDIA's published numbers for
 * the Titan V / RTX 2080 plus the latencies measured by the paper and
 * by Jia et al. (arXiv:1804.06826).
 */
struct GpuConfig
{
    std::string name;
    Arch arch = Arch::kVolta;

    // --- Chip-level resources ---
    int num_sms = 80;
    int subcores_per_sm = 4;
    int tensor_cores_per_subcore = 2;
    int max_warps_per_sm = 64;
    int max_ctas_per_sm = 32;
    uint32_t registers_per_sm = 65536;      ///< 32-bit registers.
    uint32_t shared_mem_per_sm = 96 * 1024; ///< Bytes.
    double clock_ghz = 1.530;

    // --- Sub-core execution resources (Fig 1 of the paper) ---
    int fp32_lanes = 16;  ///< FFMA/clk per sub-core.
    int int_lanes = 16;
    int fp64_lanes = 8;
    int mufu_lanes = 4;

    // --- Pipeline latencies (cycles) ---
    int fp32_latency = 4;
    int int_latency = 4;
    int fp64_latency = 8;
    int mufu_latency = 21;

    // --- Tensor core (Section IV of the paper) ---
    int fedp_units_per_tc = 16;   ///< Four-element dot product units.
    int fedp_pipeline_stages = 4; ///< 1 multiply + 3 accumulate stages.
    int hmma_issue_interval = 2;  ///< Min cycles between HMMA issues.
    /** Max warps concurrently executing HMMA per SM (Fig 12c). */
    int max_tc_warps_per_sm = 4;

    // --- Memory system ---
    int ldst_queue_depth = 32;
    int shared_mem_banks = 32;
    int shared_mem_latency = 25;
    uint32_t l1_size = 128 * 1024;
    int l1_line_bytes = 128;
    int l1_sector_bytes = 32;
    int l1_assoc = 4;
    int l1_hit_latency = 28;
    uint32_t l2_size = 4608 * 1024;
    int l2_assoc = 16;
    int l2_hit_latency = 193;
    int dram_latency = 220;       ///< Added on L2 miss.
    int num_mem_partitions = 24;
    double dram_bytes_per_cycle_per_partition = 16.0;
    int mio_bytes_per_cycle = 64; ///< MIO datapath width (Fig 1).

    // --- Transaction-queued memory path (MSHRs, NoC, banked L2,
    //     DRAM queueing).  Misses travel coalescer -> L1/MSHR -> NoC
    //     -> L2 bank -> DRAM partition as queued transactions; when a
    //     stage's slots are exhausted the refusal propagates back to
    //     the issuing warp as back-pressure. ---
    int l1_mshr_entries = 256;      ///< Outstanding line fills per SM (<= 65534).
    int l2_banks = 48;              ///< L2 service banks (2 per partition).
    double l2_bank_bytes_per_cycle = 32.0;  ///< Per-bank service rate.
    int l2_bank_queue_depth = 64;   ///< Requests queued per bank.
    double noc_bytes_per_cycle = 2048.0;    ///< SM<->L2 crossbar bisection.
    int noc_queue_depth = 1024;     ///< In-flight NoC transfers.
    int dram_queue_depth = 64;      ///< Requests queued per partition.
    int dram_rw_turnaround = 8;     ///< Bus-direction switch penalty.

    /** Peak tensor-core TFLOPS implied by the configuration. */
    double peak_tensor_tflops() const;
    /** Peak FP32 (non tensor core) TFLOPS. */
    double peak_fp32_tflops() const;
    /** Total tensor cores on the chip. */
    int total_tensor_cores() const
    {
        return num_sms * subcores_per_sm * tensor_cores_per_subcore;
    }
};

/** NVIDIA Titan V (Volta, 80 SMs, 640 tensor cores, 125 TFLOPS peak). */
GpuConfig titan_v_config();

/** NVIDIA RTX 2080 (Turing, 46 SMs, 368 tensor cores). */
GpuConfig rtx2080_config();

/**
 * FNV-1a digest of every timing-relevant GpuConfig field (the name is
 * cosmetic and excluded: renamed-but-identical configs may exchange
 * snapshots and replay profiles).  Snapshot restore and the kernel
 * replay-cache fingerprint both key on it.
 */
uint64_t hash_config(const GpuConfig& c);

}  // namespace tcsim
