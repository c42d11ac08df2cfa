/**
 * @file
 * Batching policies for the serving simulator.
 *
 * A policy is consulted at every decision point — request arrival,
 * layer boundary of an in-flight batch, batch completion, and timeout
 * deadline — and answers one question: how many queued requests to
 * admit as the next batch *right now* (0 = keep waiting).  Policies
 * see only the queue state and the simulated clock, so their
 * decisions are bit-deterministic across `--jobs`.
 *
 *  - StaticBatcher(batch, timeout): the classic server-side batcher.
 *    Waits until `batch` requests are queued, or until the oldest
 *    queued request has waited `timeout` cycles (flushing a partial
 *    batch).  One batch in flight at a time: batches serialize.
 *
 *  - ContinuousBatcher(max_batch, max_in_flight): vLLM-style
 *    continuous batching.  Admits whatever is queued (up to
 *    max_batch) at every decision point while fewer than
 *    max_in_flight batches are running — in particular at the *layer
 *    boundaries* of in-flight batches, so late arrivals join the GPU
 *    mid-model instead of waiting for the previous batch to drain.
 */
#pragma once

#include <cstdint>

namespace tcsim::serve {

/** Queue state a policy decides on. */
struct BatchingState
{
    int queued = 0;
    /** Arrival cycle of the oldest queued request (undefined when
     *  queued == 0). */
    uint64_t oldest_arrival = 0;
    /** Batches currently running on the GPU. */
    int in_flight = 0;
};

class BatchingPolicy
{
  public:
    virtual ~BatchingPolicy() = default;

    virtual const char* name() const = 0;

    /** Requests to admit as one batch at cycle @p now (0 = wait). */
    virtual int admit(uint64_t now, const BatchingState& s) const = 0;

    /**
     * The next cycle the policy wants to be woken at absent any other
     * stimulus (UINT64_MAX = none).  Used for timeout flushes: the
     * serving engine fast-forwards the clock here when the GPU is
     * idle and no arrival comes sooner.
     */
    virtual uint64_t next_deadline(const BatchingState& s) const = 0;

    /**
     * Admission control: may a newly arrived request join the queue
     * when @p queue_depth requests are already waiting?  The default
     * accepts everything; LoadSheddingPolicy rejects past a depth cap
     * (the request is counted as shed and never admitted).
     */
    virtual bool accept_arrival(int queue_depth) const
    {
        (void)queue_depth;
        return true;
    }
};

/**
 * Queue-depth load shedding as a policy wrapper: batching decisions
 * delegate to the inner policy untouched, but arrivals that would
 * push the queue past @p max_queue_depth are shed at the door.  Under
 * overload this trades completion rate for bounded queue wait — the
 * classic admission-control knee — and keeps the wedge detector
 * honest: a shed request is resolved, not forgotten.
 */
class LoadSheddingPolicy : public BatchingPolicy
{
  public:
    LoadSheddingPolicy(const BatchingPolicy& inner, int max_queue_depth)
        : inner_(inner), max_queue_depth_(max_queue_depth)
    {
    }

    const char* name() const override { return inner_.name(); }
    int admit(uint64_t now, const BatchingState& s) const override
    {
        return inner_.admit(now, s);
    }
    uint64_t next_deadline(const BatchingState& s) const override
    {
        return inner_.next_deadline(s);
    }
    bool accept_arrival(int queue_depth) const override
    {
        return queue_depth < max_queue_depth_;
    }

  private:
    const BatchingPolicy& inner_;
    int max_queue_depth_;
};

/** Fixed batch size with a timeout flush; one batch in flight. */
class StaticBatcher : public BatchingPolicy
{
  public:
    StaticBatcher(int batch, uint64_t timeout_cycles)
        : batch_(batch), timeout_(timeout_cycles)
    {
    }

    const char* name() const override { return "static"; }
    int admit(uint64_t now, const BatchingState& s) const override;
    uint64_t next_deadline(const BatchingState& s) const override;

  private:
    int batch_;
    uint64_t timeout_;
};

/** Continuous batching: admit at every decision point while capacity
 *  remains. */
class ContinuousBatcher : public BatchingPolicy
{
  public:
    ContinuousBatcher(int max_batch, int max_in_flight)
        : max_batch_(max_batch), max_in_flight_(max_in_flight)
    {
    }

    const char* name() const override { return "continuous"; }
    int admit(uint64_t now, const BatchingState& s) const override;
    uint64_t next_deadline(const BatchingState& s) const override;

  private:
    int max_batch_;
    int max_in_flight_;
};

}  // namespace tcsim::serve
