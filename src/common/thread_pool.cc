#include "common/thread_pool.hh"

#include "common/log.hh"
#include "common/profile.hh"

namespace smthill
{

ThreadPool::ThreadPool(int jobs)
    : numJobs(jobs < 1 ? 1 : jobs),
      forIndicesStat(globalStats().counter(CounterId::ThreadPoolForIndices))
{
    workers.reserve(static_cast<std::size_t>(numJobs - 1));
    for (int w = 1; w < numJobs; ++w)
        workers.emplace_back([this, w] { workerLoop(w); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        shuttingDown = true;
    }
    wakeCv.notify_all();
    for (auto &w : workers)
        w.join();
}

void
ThreadPool::drain(int worker)
{
    for (std::size_t i = next.fetch_add(1); i < count;
         i = next.fetch_add(1))
        (*body)(i, worker);
}

void
ThreadPool::workerLoop(int worker)
{
    std::uint64_t seen = 0;
    for (;;) {
        {
            // Idle span: time this worker spends parked between
            // fan-outs. Together with the busy span below it yields
            // the profile's measured parallel_efficiency
            // (prof::ProfileReport::parallelEfficiency).
            SMTHILL_PROF_SCOPE(prof::kWorkerIdleSpan);
            std::unique_lock<std::mutex> lock(mutex);
            wakeCv.wait(lock, [&] {
                return shuttingDown || generation != seen;
            });
            if (shuttingDown)
                return;
            seen = generation;
        }
        {
            SMTHILL_PROF_SCOPE(prof::kWorkerBusySpan);
            drain(worker);
        }
        std::lock_guard<std::mutex> lock(mutex);
        if (--inside == 0)
            doneCv.notify_one();
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &body_fn)
{
    parallelForWorker(n,
                      [&body_fn](std::size_t i, int) { body_fn(i); });
}

void
ThreadPool::parallelForWorker(
    std::size_t n, const std::function<void(std::size_t, int)> &body_fn)
{
    if (n == 0)
        return;
    forIndicesStat.add(n);
    if (workers.empty() || n == 1) {
        // Exact serial execution: same thread, same order.
        for (std::size_t i = 0; i < n; ++i)
            body_fn(i, 0);
        return;
    }

    // Fork: publish the fan-out and wake every worker; each pulls
    // indices from the shared dispenser, so load-imbalanced trials
    // never idle a worker.
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (body)
            panic("ThreadPool: a fan-out body fanned out on its own pool");
        body = &body_fn;
        count = n;
        next.store(0, std::memory_order_relaxed);
        inside = static_cast<int>(workers.size());
        ++generation;
    }
    wakeCv.notify_all();
    drain(0);

    // Join: body_fn and the caller's output slots stay in use until
    // the last worker has left.
    std::unique_lock<std::mutex> lock(mutex);
    doneCv.wait(lock, [this] { return inside == 0; });
    body = nullptr;
}

int
ThreadPool::defaultJobs()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw < 1 ? 1 : static_cast<int>(hw);
}

} // namespace smthill
