#include "common.hh"

#include <sys/resource.h>

#include <cmath>
#include <cstring>
#include <sstream>

namespace perfbench
{

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // Linux reports KB.
}

void
beginTracing()
{
    // 256Ki events per recording thread: one collect() window of the
    // serve workload (a few thousand requests, ~8 events each across
    // the library's and the benchmark's spans) never wraps.
    lego::obs::Tracer::instance().clear(std::size_t(1) << 18);
    lego::obs::Tracer::setEnabled(true);
}

namespace
{

struct Span
{
    std::string name;
    std::uint64_t startNs = 0;
    std::uint64_t durNs = 0;
    std::uint64_t childNs = 0;
};

} // namespace

void
SpanStats::collect()
{
    lego::obs::Tracer &tr = lego::obs::Tracer::instance();
    const std::string json = tr.toJson();
    tr.clear();

    std::map<std::size_t, std::vector<Span>> byTid;
    std::istringstream in(json);
    std::string line;
    char name[256], cat[64];
    double tsUs = 0, durUs = 0;
    std::size_t tid = 0;
    while (std::getline(in, line)) {
        if (std::sscanf(line.c_str(),
                        "{\"name\": \"%255[^\"]\", \"cat\": \"%63[^\"]\", "
                        "\"ph\": \"X\", \"ts\": %lf, \"dur\": %lf, "
                        "\"pid\": 1, \"tid\": %zu",
                        name, cat, &tsUs, &durUs, &tid) != 5)
            continue;
        if (std::strcmp(cat, kCat) != 0)
            continue;
        Span s;
        s.name = name;
        s.startNs = std::uint64_t(std::llround(tsUs * 1000.0));
        s.durNs = std::uint64_t(std::llround(durUs * 1000.0));
        byTid[tid].push_back(std::move(s));
    }
    const std::size_t at = json.find("\"dropped_events\": ");
    if (at != std::string::npos)
        dropped_ += std::strtoull(json.c_str() + at + 18, nullptr, 10);

    for (auto &kv : byTid) {
        std::vector<Span> &spans = kv.second;
        // Parents first: earlier start, then the longer span.
        std::sort(spans.begin(), spans.end(),
                  [](const Span &a, const Span &b) {
                      if (a.startNs != b.startNs)
                          return a.startNs < b.startNs;
                      return a.durNs > b.durNs;
                  });
        std::vector<std::size_t> stack;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const std::uint64_t end = spans[i].startNs + spans[i].durNs;
            while (!stack.empty()) {
                const Span &top = spans[stack.back()];
                if (top.startNs + top.durNs >= end)
                    break;
                stack.pop_back();
            }
            if (!stack.empty())
                spans[stack.back()].childNs += spans[i].durNs;
            stack.push_back(i);
        }
        for (const Span &s : spans) {
            Entry &e = byName_[s.name];
            e.durNs.push_back(double(s.durNs));
            e.selfNs += double(s.durNs - std::min(s.durNs, s.childNs));
        }
    }
}

const SpanStats::Entry &
SpanStats::get(const std::string &name) const
{
    static const Entry kEmpty;
    auto it = byName_.find(name);
    return it == byName_.end() ? kEmpty : it->second;
}

} // namespace perfbench
