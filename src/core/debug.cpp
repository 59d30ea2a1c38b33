#include "core/debug.hpp"

#include "core/arena.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <sstream>

namespace exa::debug {

namespace {

std::mutex g_mutex;
std::vector<Violation> g_violations;

bool initialAbort() {
    const char* e = std::getenv("EXA_DEBUG_ABORT");
    return e == nullptr || std::strcmp(e, "0") != 0;
}
bool g_abort_on_violation = initialAbort();

std::int64_t envInt(const char* name, std::int64_t fallback) {
    const char* e = std::getenv(name);
    if (e == nullptr || *e == '\0') return fallback;
    return std::strtoll(e, nullptr, 10);
}

std::map<std::string, int>& checkCounts() {
    static std::map<std::string, int> counts;
    return counts;
}

// True while a LaunchCheck replay is in flight, so any ParallelFor issued
// from inside checker machinery runs plain-serial instead of recursing.
bool g_in_check = false;

} // namespace

Limits& limits() {
    static Limits l = [] {
        Limits init;
        init.checks_per_kernel =
            static_cast<int>(envInt("EXA_DEBUG_CHECKS_PER_KERNEL", init.checks_per_kernel));
        init.snapshot_byte_cap = envInt("EXA_DEBUG_SNAPSHOT_CAP", init.snapshot_byte_cap);
        init.footprint_budget = envInt("EXA_DEBUG_FOOTPRINT_BUDGET", init.footprint_budget);
        init.shuffle_zone_cap = envInt("EXA_DEBUG_SHUFFLE_CAP", init.shuffle_zone_cap);
        return init;
    }();
    return l;
}

void resetCheckCounts() {
    std::lock_guard<std::mutex> lk(g_mutex);
    checkCounts().clear();
}

ScopedCheckEveryLaunch::ScopedCheckEveryLaunch() {
    std::lock_guard<std::mutex> lk(g_mutex);
    m_saved_limit = limits().checks_per_kernel;
    m_saved_counts = checkCounts();
    limits().checks_per_kernel = 0;
}

ScopedCheckEveryLaunch::~ScopedCheckEveryLaunch() {
    std::lock_guard<std::mutex> lk(g_mutex);
    limits().checks_per_kernel = m_saved_limit;
    checkCounts() = std::move(m_saved_counts);
}

void reportViolation(const std::string& source, const std::string& kind,
                     const std::string& detail) {
    {
        std::lock_guard<std::mutex> lk(g_mutex);
        g_violations.push_back({source, kind, detail});
    }
    std::fprintf(stderr, "[exa-debug] VIOLATION in '%s' (%s): %s\n", source.c_str(),
                 kind.c_str(), detail.c_str());
    if (g_abort_on_violation) {
        std::fprintf(stderr,
                     "[exa-debug] aborting (set EXA_DEBUG_ABORT=0 or "
                     "debug::setAbortOnViolation(false) to continue instead)\n");
        std::fflush(stderr);
        std::abort();
    }
}

std::size_t violationCount() {
    std::lock_guard<std::mutex> lk(g_mutex);
    return g_violations.size();
}

std::vector<Violation> violations() {
    std::lock_guard<std::mutex> lk(g_mutex);
    return g_violations;
}

void clearViolations() {
    std::lock_guard<std::mutex> lk(g_mutex);
    g_violations.clear();
}

void setAbortOnViolation(bool abort_on_violation) {
    g_abort_on_violation = abort_on_violation;
}

bool abortOnViolation() { return g_abort_on_violation; }

std::vector<std::int64_t> shuffledOrder(std::int64_t n) {
    std::vector<std::int64_t> order(static_cast<std::size_t>(n));
    for (std::int64_t l = 0; l < n; ++l) order[static_cast<std::size_t>(l)] = l;
    std::uint64_t x = 0x9E3779B97F4A7C15ull; // fixed seed: deterministic replay
    for (std::int64_t l = n - 1; l > 0; --l) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const std::int64_t r = static_cast<std::int64_t>((x >> 33) % (l + 1));
        std::swap(order[static_cast<std::size_t>(l)], order[static_cast<std::size_t>(r)]);
    }
    return order;
}

// --- LaunchCheck ----------------------------------------------------------

LaunchCheck::LaunchCheck(const KernelInfo& ki, std::int64_t work_items)
    : m_kernel(ki.name != nullptr ? ki.name : "anonymous"), m_items(work_items) {
    if (g_in_check) return; // re-entrant launch: run unchecked
    {
        std::lock_guard<std::mutex> lk(g_mutex);
        auto& count = checkCounts()[m_kernel];
        const int cap = limits().checks_per_kernel;
        if (cap > 0 && count >= cap) return;
        ++count;
    }
    // Snapshot every live arena block (the device-resident state).
    std::int64_t total = 0;
    forEachLiveArenaBlock([&](void* p, std::size_t bytes) {
        total += static_cast<std::int64_t>(bytes);
        m_snaps.push_back({static_cast<unsigned char*>(p), bytes, {}, {}});
    });
    if (total > limits().snapshot_byte_cap) {
        m_snaps.clear();
        return; // too much live state to double-buffer; pass through
    }
    for (auto& s : m_snaps) {
        s.baseline.assign(s.ptr, s.ptr + s.bytes);
    }
    m_active = true;
    g_in_check = true;
}

LaunchCheck::~LaunchCheck() {
    if (m_active) g_in_check = false;
}

void LaunchCheck::captureForward() {
    for (auto& s : m_snaps) s.forward.assign(s.ptr, s.ptr + s.bytes);
}

void LaunchCheck::restoreBaseline() {
    for (auto& s : m_snaps) std::memcpy(s.ptr, s.baseline.data(), s.bytes);
}

void LaunchCheck::compareAgainstForward(const char* order_name) {
    std::int64_t bad_bytes = 0;
    int bad_blocks = 0;
    const unsigned char* first_addr = nullptr;
    for (const auto& s : m_snaps) {
        if (std::memcmp(s.ptr, s.forward.data(), s.bytes) == 0) continue;
        ++bad_blocks;
        for (std::size_t b = 0; b < s.bytes; ++b) {
            if (s.ptr[b] != s.forward[b]) {
                ++bad_bytes;
                if (first_addr == nullptr) first_addr = s.ptr + b;
            }
        }
    }
    if (bad_blocks == 0) return;
    std::ostringstream os;
    os << "running the " << m_items << "-item launch in " << order_name
       << " zone order changed the result: " << bad_bytes << " byte(s) across "
       << bad_blocks << " arena block(s) differ (first at " << static_cast<const void*>(first_addr)
       << "). Some zone reads state another zone writes in the same launch; "
          "under GPU semantics this is a race.";
    reportViolation(m_kernel, "order-dependence", os.str());
}

bool LaunchCheck::shuffleWanted() const {
    return m_items <= limits().shuffle_zone_cap;
}

void LaunchCheck::computeWrittenBytes() {
    if (m_written_bytes >= 0) return;
    m_written_bytes = 0;
    for (const auto& s : m_snaps) {
        if (std::memcmp(s.baseline.data(), s.forward.data(), s.bytes) == 0) continue;
        for (std::size_t b = 0; b < s.bytes; ++b) {
            if (s.baseline[b] != s.forward[b]) ++m_written_bytes;
        }
    }
}

bool LaunchCheck::footprintWanted() {
    computeWrittenBytes();
    if (m_written_bytes == 0) return false;
    return m_items * m_written_bytes <= limits().footprint_budget;
}

void LaunchCheck::beginFootprint() {
    m_footprints.clear();
    for (std::size_t idx = 0; idx < m_snaps.size(); ++idx) {
        const auto& s = m_snaps[idx];
        if (std::memcmp(s.baseline.data(), s.forward.data(), s.bytes) == 0) continue;
        Footprint fp;
        fp.snap = idx;
        fp.shadow = s.baseline;
        fp.owner.assign(s.bytes, -1);
        m_footprints.push_back(std::move(fp));
    }
}

void LaunchCheck::footprintScan(std::int64_t item) {
    // An item changes a few bytes of one block, but a fused launch's
    // blocks span every fab it touches: skip a block the item left alone
    // with one memcmp, skip unchanged chunks of the others, and compare
    // single bytes only inside a chunk that changed.
    constexpr std::size_t kChunk = 256;
    for (auto& fp : m_footprints) {
        const auto& s = m_snaps[fp.snap];
        if (std::memcmp(s.ptr, fp.shadow.data(), s.bytes) == 0) continue;
        for (std::size_t c = 0; c < s.bytes; c += kChunk) {
            const std::size_t end = std::min(c + kChunk, s.bytes);
            if (std::memcmp(s.ptr + c, fp.shadow.data() + c, end - c) == 0) continue;
            for (std::size_t b = c; b < end; ++b) {
                if (s.ptr[b] == fp.shadow[b]) continue;
                fp.shadow[b] = s.ptr[b];
                if (fp.owner[b] < 0 || fp.owner[b] == item) {
                    fp.owner[b] = item;
                    continue;
                }
                if (!m_collision_reported) {
                    m_collision_reported = true;
                    std::ostringstream os;
                    os << "work items " << fp.owner[b] << " and " << item
                       << " both wrote byte " << static_cast<const void*>(s.ptr + b)
                       << " within one launch; per-zone writes must be keyed by the "
                          "zone's own (i,j,k[,n]).";
                    reportViolation(m_kernel, "write-collision", os.str());
                }
                fp.owner[b] = item;
            }
        }
    }
}

void LaunchCheck::finish() {
    // Whatever order ran last, the observable result of a Debug launch is
    // the forward-order (bit-identical-to-Serial) state.
    for (auto& s : m_snaps) std::memcpy(s.ptr, s.forward.data(), s.bytes);
    m_footprints.clear();
}

} // namespace exa::debug
