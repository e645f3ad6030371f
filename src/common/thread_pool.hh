/**
 * @file
 * A small fixed-size worker pool with one scheduling path.
 *
 * parallelFor() is what every caller runs on, from the DSE layer's
 * (benchmark x design point) sweeps down to one-task-per-benchmark
 * profiling.  A model evaluation is microseconds, so a per-task
 * queue — shared_ptr<packaged_task>, std::function, future, mutex/cv
 * round trip per task — would cost more than the work and make
 * sweeps scale *backwards* with threads.  parallelFor publishes one
 * index-range job with a single lock acquisition and zero per-chunk
 * heap allocations: workers (and the calling thread, which
 * participates) claim [begin, end) chunks under the pool mutex and
 * run them outside it, and completion is a single latch-style wait
 * on the job's item count.  The job lives on the caller's stack; the
 * caller does not return until every index is processed, so chunk
 * execution never touches freed state.
 *
 * A pool with zero workers degenerates to inline execution:
 * parallelFor() runs the whole range as one inline chunk.  That
 * keeps serial fallback paths (nthreads <= 1 without a spare thread)
 * free of any scheduling machinery.
 */

#ifndef MECH_COMMON_THREAD_POOL_HH
#define MECH_COMMON_THREAD_POOL_HH

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/registry.hh"
#include "obs/trace.hh"

namespace mech {

namespace detail {

/** The pool's process-wide observability instruments (all pools
 *  share them; updates are relaxed atomics, registration happens
 *  once under the registry mutex). */
struct PoolObs
{
    obs::Gauge &busyWorkers;
    obs::Counter &chunksRun;
    obs::LatencyHistogram &chunkUs;

    static PoolObs &
    get()
    {
        static PoolObs o{
            obs::MetricsRegistry::global().gauge(
                "pool.busy_workers",
                "Threads currently executing pool work"),
            obs::MetricsRegistry::global().counter(
                "pool.chunks_run", "parallelFor chunks executed"),
            obs::MetricsRegistry::global().histogram(
                "pool.chunk_us",
                "parallelFor chunk execution latency in microseconds"),
        };
        return o;
    }
};

/**
 * Scope guard timing one unit of pool work: marks a worker busy,
 * and on exit records the chunk latency histogram, the chunk
 * counter, and (when tracing) a "parallelFor.chunk" trace span.
 * All of it stays on the observability channel — no effect on the
 * work's results or ordering.
 */
class ChunkScope
{
  public:
    ChunkScope() : start(std::chrono::steady_clock::now())
    {
        PoolObs::get().busyWorkers.add(1);
    }

    ChunkScope(const ChunkScope &) = delete;
    ChunkScope &operator=(const ChunkScope &) = delete;

    ~ChunkScope()
    {
        const auto end = std::chrono::steady_clock::now();
        const std::uint64_t us = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                end - start)
                .count());
        PoolObs &o = PoolObs::get();
        o.busyWorkers.sub(1);
        o.chunksRun.inc();
        o.chunkUs.record(us);
        if (obs::TraceRecorder *rec = obs::TraceRecorder::current())
            rec->complete("parallelFor.chunk", "pool",
                          rec->tsOf(start), us);
    }

  private:
    std::chrono::steady_clock::time_point start;
};

} // namespace detail

/** Fixed-size thread pool running bulk index-range jobs. */
class ThreadPool
{
  public:
    /**
     * @param workers Worker threads to spawn; 0 means "run every
     *        range inline on the calling thread".
     */
    explicit ThreadPool(unsigned workers)
    {
        threads.reserve(workers);
        try {
            for (unsigned i = 0; i < workers; ++i)
                threads.emplace_back([this] { workerLoop(); });
        } catch (...) {
            // Spawning worker i failed (resource exhaustion): join
            // the 0..i-1 already running, else their joinable
            // std::threads would terminate() on vector destruction.
            shutdown();
            throw;
        }
    }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Joins the worker threads. */
    ~ThreadPool() { shutdown(); }

    /**
     * Run @p fn over the index range [0, @p n) in chunks of up to
     * @p chunk indices, blocking until every index has been
     * processed.
     *
     * @p fn is invoked as fn(begin, end) with 0 <= begin < end <= n;
     * distinct chunks may run concurrently on any worker or on the
     * calling thread (which participates), so @p fn must only write
     * to state preassigned to its indices.  The first exception
     * escaping a chunk is rethrown on the calling thread after the
     * whole range has been processed; later exceptions are dropped.
     *
     * Cost: one lock acquisition to publish the job, two per chunk
     * to claim it and retire it, no heap allocation at all.
     */
    template <typename F>
    void
    parallelFor(std::size_t n, std::size_t chunk, F &&fn)
    {
        if (n == 0)
            return;
        chunk = std::max<std::size_t>(1, chunk);
        if (threads.empty() || n <= chunk) {
            detail::ChunkScope scope;
            fn(std::size_t{0}, n);
            return;
        }

        BulkJob job;
        job.invoke = [](void *ctx, std::size_t begin, std::size_t end) {
            (*static_cast<std::remove_reference_t<F> *>(ctx))(begin,
                                                              end);
        };
        job.ctx = const_cast<void *>(
            static_cast<const void *>(std::addressof(fn)));
        job.n = n;
        job.chunk = chunk;

        std::unique_lock<std::mutex> lock(mtx);
        bulkJobs.push_back(&job);
        cv.notify_all();
        // Participate: the calling thread claims chunks like any
        // worker, so small ranges finish before workers even wake.
        runBulkChunks(lock, job);
        cvDone.wait(lock, [&job] { return job.completed == job.n; });
        bulkJobs.erase(
            std::find(bulkJobs.begin(), bulkJobs.end(), &job));
        lock.unlock();

        if (job.error)
            std::rethrow_exception(job.error);
    }

    /**
     * A chunk size for parallelFor over @p n items of roughly uniform
     * cost: ~8 chunks per participant (workers + caller), enough
     * slack for load balance while keeping claim traffic negligible.
     */
    std::size_t
    bulkChunk(std::size_t n) const
    {
        if (threads.empty())
            return std::max<std::size_t>(1, n);
        return std::max<std::size_t>(1,
                                     n / ((threads.size() + 1) * 8));
    }

    /** Number of worker threads (0 for an inline pool). */
    std::size_t workerCount() const { return threads.size(); }

    /**
     * Worker count for "use the whole machine" callers: the hardware
     * concurrency, or 1 when the runtime cannot tell.
     */
    static unsigned
    defaultWorkerCount()
    {
        unsigned hw = std::thread::hardware_concurrency();
        return hw ? hw : 1;
    }

    /** Upper bound on user-requested worker counts. */
    static constexpr unsigned kMaxWorkers = 256;

    /**
     * Clamp an untrusted (CLI/env) worker count.
     *
     * Zero and negatives mean "use the whole machine" and resolve to
     * defaultWorkerCount() — every tool's `--threads 0` (and omitted
     * default) goes through here, so the convention stays uniform
     * across mech_bench, calibrate, mech_search and the benches.
     * Oversized requests cap at kMaxWorkers.
     */
    static unsigned
    sanitizeWorkerCount(long long requested)
    {
        if (requested <= 0)
            return defaultWorkerCount();
        if (requested > static_cast<long long>(kMaxWorkers))
            return kMaxWorkers;
        return static_cast<unsigned>(requested);
    }

  private:
    /**
     * One published parallelFor range.  Lives on the caller's stack;
     * every mutable field is guarded by the pool mutex, so claiming
     * and retiring chunks needs no atomics and a finished job can be
     * popped without racing in-flight workers.
     */
    struct BulkJob
    {
        /** Type-erased chunk body (no allocation: ctx is the caller's
         *  callable, alive until parallelFor returns). */
        void (*invoke)(void *, std::size_t, std::size_t) = nullptr;
        void *ctx = nullptr;

        /** Range size and claim granularity (immutable). */
        std::size_t n = 0;
        std::size_t chunk = 1;

        /** First unclaimed index (guarded by the pool mutex). */
        std::size_t next = 0;

        /** Indices whose chunk has finished running (guarded). */
        std::size_t completed = 0;

        /** First exception a chunk threw (guarded). */
        std::exception_ptr error;
    };

    /** First published job with unclaimed work, or null (lock held). */
    BulkJob *
    nextBulkJob() const
    {
        for (BulkJob *job : bulkJobs) {
            if (job->next < job->n)
                return job;
        }
        return nullptr;
    }

    /**
     * Claim and run chunks of @p job until none are left.  Called
     * with @p lock held; the lock is released while a chunk runs and
     * reacquired to retire it, and is held again on return.
     */
    void
    runBulkChunks(std::unique_lock<std::mutex> &lock, BulkJob &job)
    {
        while (job.next < job.n) {
            const std::size_t begin = job.next;
            const std::size_t end =
                std::min(job.n, begin + job.chunk);
            job.next = end;
            lock.unlock();

            std::exception_ptr err;
            try {
                detail::ChunkScope scope;
                job.invoke(job.ctx, begin, end);
            } catch (...) {
                err = std::current_exception();
            }

            lock.lock();
            if (err && !job.error)
                job.error = err;
            job.completed += end - begin;
            if (job.completed == job.n)
                cvDone.notify_all();
        }
    }

    void
    shutdown()
    {
        {
            std::lock_guard<std::mutex> lock(mtx);
            stopping = true;
        }
        cv.notify_all();
        for (auto &t : threads)
            t.join();
        threads.clear();
    }

    void
    workerLoop()
    {
        std::unique_lock<std::mutex> lock(mtx);
        for (;;) {
            cv.wait(lock, [this] {
                return stopping || nextBulkJob() != nullptr;
            });
            if (BulkJob *job = nextBulkJob()) {
                runBulkChunks(lock, *job);
                continue;
            }
            if (stopping)
                return;
        }
    }

    std::vector<std::thread> threads;
    std::vector<BulkJob *> bulkJobs;
    std::mutex mtx;
    std::condition_variable cv;
    std::condition_variable cvDone;
    bool stopping = false;
};

} // namespace mech

#endif // MECH_COMMON_THREAD_POOL_HH
