#include "common/thread_pool.hh"

#include <atomic>
#include <exception>
#include <limits>

#include "common/profile.hh"

namespace smthill
{

ThreadPool::ThreadPool(int jobs)
    : numJobs(jobs < 1 ? 1 : jobs),
      tasksStat(globalStats().counter(CounterId::ThreadPoolTasks)),
      queueDepthStat(globalStats().gauge(GaugeId::ThreadPoolQueueDepth)),
      forIndicesStat(globalStats().counter(CounterId::ThreadPoolForIndices))
{
    workers.reserve(static_cast<std::size_t>(numJobs - 1));
    for (int i = 0; i < numJobs - 1; ++i)
        workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(queueMutex);
        shuttingDown = true;
    }
    queueCv.notify_all();
    for (auto &w : workers)
        w.join();
}

void
ThreadPool::enqueue(std::function<void()> task)
{
    if (workers.empty()) {
        tasksStat.inc();
        task();
        return;
    }
    {
        std::lock_guard<std::mutex> lock(queueMutex);
        queue.push_back(std::move(task));
        queueDepthStat.set(static_cast<double>(queue.size()));
    }
    queueCv.notify_one();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            // Idle span: time this worker spends parked on the queue.
            // Together with the busy span below it yields the
            // profile's measured parallel_efficiency
            // (prof::ProfileReport::parallelEfficiency).
            SMTHILL_PROF_SCOPE(prof::kWorkerIdleSpan);
            std::unique_lock<std::mutex> lock(queueMutex);
            queueCv.wait(lock,
                         [this] { return shuttingDown || !queue.empty(); });
            if (queue.empty())
                return; // shutting down and drained
            task = std::move(queue.front());
            queue.pop_front();
            queueDepthStat.set(static_cast<double>(queue.size()));
        }
        tasksStat.inc();
        {
            SMTHILL_PROF_SCOPE(prof::kWorkerBusySpan);
            task();
        }
    }
}

namespace
{

/** Shared progress of one parallelFor call. */
struct ForState
{
    std::atomic<std::size_t> next{0};
    std::size_t n = 0;

    std::mutex doneMutex;
    std::condition_variable doneCv;
    int helpersLeft = 0;

    /** Lowest-index exception, if any task threw. */
    std::exception_ptr error;
    std::size_t errorIndex = std::numeric_limits<std::size_t>::max();

    void
    drain(const std::function<void(std::size_t)> &body)
    {
        for (std::size_t i = next.fetch_add(1); i < n;
             i = next.fetch_add(1)) {
            try {
                body(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(doneMutex);
                if (i < errorIndex) {
                    errorIndex = i;
                    error = std::current_exception();
                }
            }
        }
    }
};

} // namespace

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &body)
{
    parallelForWorker(n,
                      [&body](std::size_t i, int) { body(i); });
}

void
ThreadPool::parallelForWorker(
    std::size_t n, const std::function<void(std::size_t, int)> &body)
{
    if (n == 0)
        return;
    forIndicesStat.add(n);
    if (workers.empty() || n == 1) {
        // Exact serial execution: same thread, same order, and
        // exceptions propagate directly from the throwing index.
        for (std::size_t i = 0; i < n; ++i)
            body(i, 0);
        return;
    }

    // One control block per fan-out call, not per index — the shared
    // state must outlive both the helpers and the caller's frame.
    auto state = std::make_shared<ForState>();
    state->n = n;

    // One helper task per worker (capped by n - the caller drains
    // too); each helper pulls indices from the shared dispenser, so
    // load-imbalanced trials never idle a worker.
    std::size_t helpers = workers.size();
    if (helpers > n - 1)
        helpers = n - 1;
    state->helpersLeft = static_cast<int>(helpers);

    for (std::size_t h = 0; h < helpers; ++h) {
        // Helper h runs as worker id h + 1 (the caller is worker 0).
        const int worker = static_cast<int>(h) + 1;
        enqueue([state, &body, worker] {
            state->drain([&body, worker](std::size_t i) {
                body(i, worker);
            });
            std::lock_guard<std::mutex> lock(state->doneMutex);
            if (--state->helpersLeft == 0)
                state->doneCv.notify_all();
        });
    }

    state->drain([&body](std::size_t i) { body(i, 0); });

    // Take the exception out of the shared state before rethrowing:
    // the last reference to the exception object must be released
    // here, on the caller, not by whichever worker happens to drop
    // its ForState reference last.
    std::exception_ptr err;
    {
        std::unique_lock<std::mutex> lock(state->doneMutex);
        state->doneCv.wait(lock,
                           [&] { return state->helpersLeft == 0; });
        err = std::move(state->error);
    }
    if (err)
        std::rethrow_exception(err);
}

int
ThreadPool::defaultJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw < 1 ? 1 : static_cast<int>(hw);
}

} // namespace smthill
