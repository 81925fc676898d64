#include "host_speed.hh"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>

#include "workloads.hh"

namespace perfbench
{

namespace
{

/** Where probe checksums go, so the compiler keeps the probe's work. */
std::atomic<std::uint64_t> probeSink{0};

/** The probe's fixed work; @return a checksum so it is not elided. */
std::uint64_t
probeWork()
{
    struct Entry
    {
        std::uint32_t bank, row, age, flags;
    };
    constexpr std::size_t kEntries = 1 << 16; // 1 MB
    std::vector<Entry> q(kEntries);
    std::uint64_t x = 88172645463325252ULL;
    for (Entry &e : q) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        e = Entry{static_cast<std::uint32_t>(x & 31),
                  static_cast<std::uint32_t>(x >> 20) & 4095,
                  static_cast<std::uint32_t>(x >> 40) & 1023,
                  static_cast<std::uint32_t>(x >> 50)};
    }
    std::uint64_t acc = 0;
    std::uint32_t open[32] = {};
    for (std::uint32_t pass = 0; pass < 120; ++pass) {
        for (std::uint32_t i = 0; i < kEntries; ++i) {
            Entry &e = q[(i * 40503u + pass) & (kEntries - 1)];
            if (open[e.bank] == e.row) {
                acc += e.age;
                e.age = 0;
            } else if (e.age > 900) {
                open[e.bank] = e.row;
                acc ^= e.flags;
            } else if ((e.flags & 3) == 1) {
                e.age += 3;
            } else {
                ++e.age;
            }
        }
    }
    return acc;
}

} // namespace

double
probeHost(std::size_t threads)
{
    if (threads <= 1) {
        // Same thread, so same CPU as the single-threaded timed call.
        const std::int64_t t0 = nowNs();
        probeSink += probeWork();
        return secondsSince(t0);
    }
    std::vector<double> seconds(threads, 0.0);
    {
        std::vector<std::jthread> workers;
        for (std::size_t t = 0; t < threads; ++t) {
            workers.emplace_back([&seconds, t] {
                const std::int64_t t0 = nowNs();
                probeSink += probeWork();
                seconds[t] = secondsSince(t0);
            });
        }
    }
    double total = 0.0;
    for (const double s : seconds)
        total += s;
    return total / static_cast<double>(threads);
}

HostSpeedSeries::HostSpeedSeries(std::size_t threads) : threads_(threads)
{
    probes_.push_back(probeHost(threads_));
}

std::vector<double>
HostSpeedSeries::normalized() const
{
    std::vector<double> out;
    for (std::size_t i = 0; i < raw_.size(); ++i) {
        const double probe = 0.5 * (probes_[i] + probes_[i + 1]);
        out.push_back(raw_[i] * kNominalProbeS / probe);
    }
    return out;
}

double
HostSpeedSeries::slowdown() const
{
    return median(probes_) / kNominalProbeS;
}

} // namespace perfbench
