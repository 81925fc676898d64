#include "trace_log.hh"

#include <algorithm>
#include <fstream>
#include <limits>
#include <map>
#include <utility>

#include "common/logging.hh"

namespace perfbench
{

SpanLog::SpanLog(std::string runId) : runId_(std::move(runId)) {}

std::uint64_t
SpanLog::open(const std::string &name, std::uint64_t parent)
{
    const std::int64_t start = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{spans_.size() + 1, parent, name, start, 0});
    return spans_.back().id;
}

void
SpanLog::close(std::uint64_t id)
{
    const std::int64_t end = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.at(id - 1).endNs = end;
}

std::uint64_t
SpanLog::add(const std::string &name, std::uint64_t parent,
             std::int64_t startNs, std::int64_t endNs)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{spans_.size() + 1, parent, name, startNs, endNs});
    return spans_.back().id;
}

void
SpanLog::addHot(const std::string &name, std::uint64_t parent,
                const HotCounter &counter)
{
    std::lock_guard<std::mutex> lock(mutex_);
    hots_.push_back(HotTotal{name, parent, counter});
}

double
SpanLog::seconds(std::uint64_t id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const Span &s = spans_.at(id - 1);
    return s.endNs > s.startNs
               ? static_cast<double>(s.endNs - s.startNs) * 1e-9
               : 0.0;
}

std::vector<Span>
SpanLog::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

std::vector<HotTotal>
SpanLog::hots() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hots_;
}

std::vector<SelfTimeRow>
selfTimes(const std::vector<Span> &spans, const std::vector<HotTotal> &hots)
{
    std::map<std::uint64_t, std::vector<const Span *>> children;
    for (const Span &s : spans) {
        if (s.parent != 0)
            children[s.parent].push_back(&s);
    }
    std::map<std::uint64_t, std::int64_t> hotNs;
    for (const HotTotal &h : hots)
        hotNs[h.parent] += h.counter.ns;

    std::vector<SelfTimeRow> rows;
    const auto rowFor = [&rows](const std::string &name) -> SelfTimeRow & {
        for (SelfTimeRow &r : rows) {
            if (r.name == name)
                return r;
        }
        rows.push_back(SelfTimeRow{name, 0, 0.0, 0.0});
        return rows.back();
    };

    for (const Span &s : spans) {
        const std::int64_t dur = std::max<std::int64_t>(0, s.endNs - s.startNs);
        // Union of the child intervals, clipped to this span.
        std::vector<std::pair<std::int64_t, std::int64_t>> iv;
        for (const Span *c : children[s.id]) {
            const std::int64_t a = std::max(c->startNs, s.startNs);
            const std::int64_t b = std::min(c->endNs, s.endNs);
            if (b > a)
                iv.emplace_back(a, b);
        }
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t curA = 0, curB = std::numeric_limits<std::int64_t>::min();
        for (const auto &[a, b] : iv) {
            if (a > curB) {
                if (curB > curA)
                    covered += curB - curA;
                curA = a;
                curB = b;
            } else {
                curB = std::max(curB, b);
            }
        }
        if (curB > curA)
            covered += curB - curA;
        const std::int64_t self =
            std::max<std::int64_t>(0, dur - covered - hotNs[s.id]);
        SelfTimeRow &r = rowFor(s.name);
        ++r.count;
        r.totalS += static_cast<double>(dur) * 1e-9;
        r.selfS += static_cast<double>(self) * 1e-9;
    }
    for (const HotTotal &h : hots) {
        SelfTimeRow &r = rowFor(h.name);
        r.count += h.counter.calls;
        r.totalS += static_cast<double>(h.counter.ns) * 1e-9;
        r.selfS += static_cast<double>(h.counter.ns) * 1e-9;
    }
    return rows;
}

SelfTimeRow
findRow(const std::vector<SelfTimeRow> &rows, const std::string &name)
{
    for (const SelfTimeRow &r : rows) {
        if (r.name == name)
            return r;
    }
    return SelfTimeRow{name, 0, 0.0, 0.0};
}

void
writeSpanFile(const std::string &path, const SpanLog &log)
{
    const std::vector<Span> spans = log.spans();
    std::int64_t origin = spans.empty() ? 0 : spans.front().startNs;
    for (const Span &s : spans)
        origin = std::min(origin, s.startNs);

    std::ofstream out(path);
    if (!out)
        srs::fatal("perfbench: cannot write span file '", path, "'");
    for (const Span &s : spans) {
        out << "{\"run\": \"" << log.runId() << "\", \"id\": " << s.id
            << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
            << "\", \"start_ns\": " << (s.startNs - origin)
            << ", \"end_ns\": " << (s.endNs - origin) << "}\n";
    }
    for (const HotTotal &h : log.hots()) {
        out << "{\"run\": \"" << log.runId() << "\", \"hot\": \"" << h.name
            << "\", \"parent\": " << h.parent
            << ", \"calls\": " << h.counter.calls
            << ", \"ns\": " << h.counter.ns << "}\n";
    }
    if (!out.flush())
        srs::fatal("perfbench: error writing span file '", path, "'");
}

} // namespace perfbench
