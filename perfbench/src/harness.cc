#include "harness.hh"

#include <algorithm>
#include <thread>

#include <sys/resource.h>

#include "sim/json.hh"

namespace perfbench
{

double
secondsSince(Clock::time_point t0)
{
    return secondsBetween(t0, Clock::now());
}

double
secondsBetween(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double>(t1 - t0).count();
}

double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const double idx = p * double(sorted.size() - 1);
    const std::size_t lo = std::size_t(idx);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * (idx - double(lo));
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return percentile(values, 0.5);
}

unsigned
coresUpTo(unsigned n)
{
    const unsigned hc = std::thread::hardware_concurrency();
    return std::max(1u, std::min(n, hc ? hc : 1u));
}

double
peakRssMb()
{
    struct rusage ru = {};
    ::getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

void
Report::sample(const std::string &name, const std::string &unit,
               double v)
{
    Metric &m = metrics_[name];
    m.unit = unit;
    m.values.push_back(v);
}

void
Report::samples(const std::string &name, const std::string &unit,
                const std::vector<double> &vs)
{
    for (double v : vs)
        sample(name, unit, v);
}

void
Report::value(const std::string &name, const std::string &unit,
              double v)
{
    metrics_[name] = Metric{unit, {v}};
}

void
Report::note(const std::string &key, const std::string &text)
{
    notes_[key] = text;
}

void
Report::attempt(bool ok, const std::string &why)
{
    ++attempted_;
    if (ok)
        return;
    ++failed_;
    if (failures_.size() < 8)
        failures_.push_back(why);
}

void
Report::attempts(std::uint64_t n, std::uint64_t failed,
                 const std::string &why)
{
    attempted_ += n;
    failed_ += failed;
    if (failed && failures_.size() < 8)
        failures_.push_back(why);
}

void
Report::writeJson(std::ostream &os) const
{
    os << "{\"attempted\":" << attempted_ << ",\"failed\":" << failed_
       << ",\"failures\":[";
    for (std::size_t i = 0; i < failures_.size(); ++i) {
        os << (i ? "," : "");
        olight::jsonString(os, failures_[i]);
    }
    os << "],\"notes\":{";
    bool first = true;
    for (const auto &[key, text] : notes_) {
        os << (first ? "" : ",");
        first = false;
        olight::jsonString(os, key);
        os << ":";
        olight::jsonString(os, text);
    }
    os << "},\"metrics\":{";
    first = true;
    for (const auto &[name, m] : metrics_) {
        os << (first ? "\n" : ",\n");
        first = false;
        olight::jsonString(os, name);
        os << ":{\"unit\":";
        olight::jsonString(os, m.unit);
        os << ",\"values\":[";
        for (std::size_t i = 0; i < m.values.size(); ++i) {
            os << (i ? "," : "");
            olight::jsonNumber(os, m.values[i]);
        }
        os << "]}";
    }
    os << "\n}}\n";
}

std::size_t
Tracer::open(const char *name, std::size_t parent, std::uint64_t id)
{
    const std::uint64_t thread =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Record{name, parent, id, thread, now, now});
    return spans_.size() - 1;
}

void
Tracer::close(std::size_t span)
{
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.at(span).end = now;
}

std::vector<double>
Tracer::selfSeconds() const
{
    // Children of one parent may overlap (concurrent clients), so
    // the covered part is the union of their intervals.
    std::vector<std::vector<std::size_t>> children(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].parent != kNoParent)
            children.at(spans_[i].parent).push_back(i);
    std::vector<double> self(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        std::vector<std::pair<Clock::time_point, Clock::time_point>>
            iv;
        for (std::size_t c : children[i])
            iv.emplace_back(std::max(spans_[c].start, spans_[i].start),
                            std::min(spans_[c].end, spans_[i].end));
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        Clock::time_point reach = spans_[i].start;
        for (const auto &[s, e] : iv) {
            const Clock::time_point from = std::max(s, reach);
            if (e > from) {
                covered += secondsBetween(from, e);
                reach = e;
            }
        }
        self[i] = secondsBetween(spans_[i].start, spans_[i].end) -
                  covered;
    }
    return self;
}

std::map<std::string, Tracer::LayerTime>
Tracer::layerTimes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::vector<double> self = selfSeconds();
    std::map<std::string, LayerTime> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        LayerTime &lt = out[spans_[i].name];
        lt.selfSeconds += self[i];
        ++lt.count;
    }
    return out;
}

double
Tracer::minChildCoverage(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const std::vector<double> self = selfSeconds();
    double worst = 1.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (name != spans_[i].name)
            continue;
        const double dur =
            secondsBetween(spans_[i].start, spans_[i].end);
        if (dur > 0)
            worst = std::min(worst, 1.0 - self[i] / dur);
    }
    return worst;
}

std::size_t
Tracer::spanCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

void
Tracer::writeChromeJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    os << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Record &s = spans_[i];
        const double ts =
            std::chrono::duration<double, std::micro>(s.start - epoch_)
                .count();
        const double dur =
            std::chrono::duration<double, std::micro>(s.end - s.start)
                .count();
        os << (i ? ",\n" : "\n") << "{\"name\":";
        olight::jsonString(os, s.name);
        os << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << (s.thread % 100000)
           << ",\"ts\":";
        olight::jsonNumber(os, ts);
        os << ",\"dur\":";
        olight::jsonNumber(os, dur);
        os << ",\"args\":{\"span\":" << i << ",\"parent\":";
        if (s.parent == kNoParent)
            os << "null";
        else
            os << s.parent;
        os << ",\"id\":" << s.id << "}}";
    }
    os << "\n]}\n";
}

} // namespace perfbench
