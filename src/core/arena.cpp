#include "core/arena.hpp"

#include "core/debug.hpp"
#include "core/fault.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>

namespace exa {

namespace {
constexpr std::size_t alignment = 64;

void* aligned_alloc_checked(std::size_t bytes) {
    // Round up to the alignment multiple required by std::aligned_alloc;
    // zero-byte requests still yield a unique, freeable pointer.
    std::size_t rounded = (bytes + alignment - 1) / alignment * alignment;
    if (rounded == 0) rounded = alignment;
    void* p = std::aligned_alloc(alignment, rounded);
    if (p == nullptr) throw std::bad_alloc{};
    return p;
}

// Registry of all live arenas, so the debug backend can enumerate every
// device-resident byte in the process. Function-local statics: constructed
// before the first Arena (the base ctor calls in here), hence destroyed
// after the last global arena.
std::mutex& registryMutex() {
    static std::mutex m;
    return m;
}
std::vector<Arena*>& registry() {
    static std::vector<Arena*> r;
    return r;
}
} // namespace

Arena::Arena() {
    std::lock_guard<std::mutex> lk(registryMutex());
    registry().push_back(this);
}

Arena::~Arena() {
    std::lock_guard<std::mutex> lk(registryMutex());
    auto& r = registry();
    r.erase(std::remove(r.begin(), r.end(), this), r.end());
}

void forEachLiveArenaBlock(const std::function<void(void*, std::size_t)>& cb) {
    std::lock_guard<std::mutex> lk(registryMutex());
    for (const Arena* a : registry()) a->forEachLive(cb);
}

// --- Per-tenant accounting -----------------------------------------------

namespace {
thread_local int t_arena_tenant = -1;
}

int currentArenaTenant() { return t_arena_tenant; }

ArenaTenantScope::ArenaTenantScope(int tenant) : m_saved(t_arena_tenant) {
    t_arena_tenant = tenant;
}

ArenaTenantScope::~ArenaTenantScope() { t_arena_tenant = m_saved; }

void* MallocArena::allocate(std::size_t bytes) {
    // Injection site: a failed device allocation mid-step. Thrown (not
    // returned as nullptr) so callers exercise their unwind paths the way
    // a real cudaMalloc failure surfaces through AMReX's Arena.
    if (fault::shouldFire(fault::Site::ArenaAllocFailure)) throw std::bad_alloc{};
    void* p = aligned_alloc_checked(bytes);
    std::lock_guard<std::mutex> lk(m_mutex);
    ++m_stats.allocs;
    ++m_stats.slow_allocs;
    m_stats.bytes_in_use += bytes;
    m_stats.bytes_reserved += bytes;
    m_stats.hwm_bytes = std::max(m_stats.hwm_bytes, m_stats.bytes_in_use);
    m_live[p] = bytes;
    return p;
}

void MallocArena::deallocate(void* p) {
    if (p == nullptr) return;
    {
        std::lock_guard<std::mutex> lk(m_mutex);
        auto it = m_live.find(p);
        if (it == m_live.end()) {
            // Not ours (foreign pointer or double free): passing it to
            // std::free would corrupt the heap, and counting it as a free
            // would corrupt the stats. Record and refuse.
            ++m_stats.bad_frees;
            return;
        }
        const std::size_t bytes = it->second;
        m_live.erase(it);
        ++m_stats.frees;
        m_stats.bytes_in_use -= bytes;
        m_stats.bytes_reserved -= bytes;
    }
    std::free(p);
}

void MallocArena::forEachLive(const std::function<void(void*, std::size_t)>& cb) const {
    std::lock_guard<std::mutex> lk(m_mutex);
    for (const auto& [p, bytes] : m_live) cb(p, bytes);
}

PoolArena::PoolArena(std::size_t min_block) : m_min_block(min_block) {}

PoolArena::~PoolArena() {
    for (auto& [cls, blocks] : m_free) {
        for (void* p : blocks) std::free(p);
    }
}

std::size_t PoolArena::sizeClass(std::size_t bytes) const {
    if (bytes <= m_min_block) return m_min_block; // includes bytes == 0
    // Doubling past the top power of two representable in size_t would
    // overflow to 0 and loop forever; such requests get an exact-size
    // "class" of their own (a direct allocation, cached like any other).
    constexpr std::size_t top = ~(~std::size_t{0} >> 1); // highest bit only
    if (bytes > top) return bytes;
    std::size_t cls = m_min_block;
    while (cls < bytes) cls <<= 1;
    return cls;
}

void* PoolArena::allocate(std::size_t bytes) {
    if (fault::shouldFire(fault::Site::ArenaAllocFailure)) throw std::bad_alloc{};
    const std::size_t cls = sizeClass(bytes);
    std::lock_guard<std::mutex> lk(m_mutex);
    ++m_stats.allocs;
    void* p = nullptr;
    auto it = m_free.find(cls);
    if (it != m_free.end() && !it->second.empty()) {
        p = it->second.back();
        it->second.pop_back();
        ++m_stats.pool_hits;
    } else {
        p = aligned_alloc_checked(cls);
        ++m_stats.slow_allocs;
        m_stats.bytes_reserved += cls;
    }
    const int tenant = t_arena_tenant;
    m_live[p] = LiveBlock{cls, tenant};
    m_stats.bytes_in_use += cls;
    m_stats.hwm_bytes = std::max(m_stats.hwm_bytes, m_stats.bytes_in_use);
    if (tenant >= 0) {
        auto& ts = m_tenants[tenant];
        ++ts.allocs;
        ts.bytes_allocated += cls;
        ts.bytes_in_use += cls;
        ts.peak_bytes = std::max(ts.peak_bytes, ts.bytes_in_use);
    }
    return p;
}

void PoolArena::deallocate(void* p) {
    if (p == nullptr) return;
    std::lock_guard<std::mutex> lk(m_mutex);
    auto it = m_live.find(p);
    if (it == m_live.end()) {
        ++m_stats.bad_frees; // not ours; refuse rather than pool a stranger
        return;
    }
    ++m_stats.frees;
    const LiveBlock b = it->second;
    m_live.erase(it);
    m_stats.bytes_in_use -= b.cls;
    // Credit the recorded owner, not the calling thread's tenant: under a
    // work-stealing scheduler the free may run on any worker, or after
    // the tenant's scope has ended.
    if (b.tenant >= 0) {
        auto& ts = m_tenants[b.tenant];
        ++ts.frees;
        ts.bytes_in_use -= b.cls;
    }
    m_free[b.cls].push_back(p);
}

TenantArenaStats PoolArena::tenantStats(int tenant) const {
    std::lock_guard<std::mutex> lk(m_mutex);
    auto it = m_tenants.find(tenant);
    return it == m_tenants.end() ? TenantArenaStats{} : it->second;
}

std::vector<int> PoolArena::tenantIds() const {
    std::lock_guard<std::mutex> lk(m_mutex);
    std::vector<int> out;
    out.reserve(m_tenants.size());
    for (const auto& [id, ts] : m_tenants) out.push_back(id);
    return out;
}

void PoolArena::resetTenantStats() {
    std::lock_guard<std::mutex> lk(m_mutex);
    m_tenants.clear();
    // Blocks still live keep their owner tag; their eventual frees must
    // not underflow a cleared counter, so detach them from any tenant.
    for (auto& [p, b] : m_live) b.tenant = -1;
}

void PoolArena::releaseCached() {
    std::lock_guard<std::mutex> lk(m_mutex);
    for (auto& [cls, blocks] : m_free) {
        for (void* p : blocks) {
            std::free(p);
            m_stats.bytes_reserved -= cls;
        }
        blocks.clear();
    }
}

void PoolArena::forEachLive(const std::function<void(void*, std::size_t)>& cb) const {
    std::lock_guard<std::mutex> lk(m_mutex);
    for (const auto& [p, b] : m_live) cb(p, b.cls);
}

// --- GuardArena ----------------------------------------------------------

GuardArena::GuardArena(Arena* underlying, std::string name)
    : m_under(underlying != nullptr ? underlying : &thePoolArena()),
      m_name(std::move(name)) {}

GuardArena::~GuardArena() {
    // At-exit report: leaks are reported but never abort (static teardown).
    std::uint64_t live = 0;
    {
        std::lock_guard<std::mutex> lk(m_mutex);
        live = m_live.size();
        for (const auto& [user, b] : m_live) {
            m_gstats.leaked_blocks += 1;
            m_gstats.leaked_bytes += b.bytes;
        }
    }
    checkAll();
    if (live > 0 || m_gstats.canary_overflows > 0 || m_gstats.canary_underflows > 0 ||
        m_gstats.double_frees > 0 || m_gstats.bad_frees > 0) {
        std::fprintf(stderr, "%s", report().c_str());
    }
}

void* GuardArena::allocate(std::size_t bytes) {
    void* base = m_under->allocate(bytes + 2 * canary_bytes);
    auto* user = static_cast<unsigned char*>(base) + canary_bytes;
    std::memset(base, canary_byte, canary_bytes);
    std::memset(user + bytes, canary_byte, canary_bytes);
    std::lock_guard<std::mutex> lk(m_mutex);
    ++m_stats.allocs;
    m_stats.bytes_in_use += bytes;
    m_stats.bytes_reserved += bytes;
    m_stats.hwm_bytes = std::max(m_stats.hwm_bytes, m_stats.bytes_in_use);
    m_live[user] = Block{base, bytes};
    m_freed.erase(user); // address re-issued: no longer "freed"
    return user;
}

std::uint64_t GuardArena::checkCanaries(void* user, const Block& b) {
    std::uint64_t found = 0;
    const auto* head = static_cast<const unsigned char*>(b.base);
    const auto* foot = static_cast<const unsigned char*>(user) + b.bytes;
    auto stomped = [](const unsigned char* p) {
        for (std::size_t i = 0; i < canary_bytes; ++i) {
            if (p[i] != canary_byte) return true;
        }
        return false;
    };
    if (stomped(head)) {
        ++m_gstats.canary_underflows;
        ++found;
        std::ostringstream os;
        os << "header canary stomped on block " << user << " (" << b.bytes
           << " bytes): write before the start of the allocation";
        debug::reportViolation(m_name, "canary-underflow", os.str());
    }
    if (stomped(foot)) {
        ++m_gstats.canary_overflows;
        ++found;
        std::ostringstream os;
        os << "footer canary stomped on block " << user << " (" << b.bytes
           << " bytes): write past the end of the allocation";
        debug::reportViolation(m_name, "canary-overflow", os.str());
    }
    return found;
}

void GuardArena::deallocate(void* p) {
    if (p == nullptr) return;
    Block b{};
    {
        std::lock_guard<std::mutex> lk(m_mutex);
        auto it = m_live.find(p);
        if (it == m_live.end()) {
            if (m_freed.count(p) != 0) {
                ++m_gstats.double_frees;
                ++m_stats.bad_frees;
                std::ostringstream os;
                os << "double free of block " << p;
                debug::reportViolation(m_name, "double-free", os.str());
            } else {
                ++m_gstats.bad_frees;
                ++m_stats.bad_frees;
                std::ostringstream os;
                os << "free of foreign pointer " << p << " never issued by this arena";
                debug::reportViolation(m_name, "bad-free", os.str());
            }
            return;
        }
        b = it->second;
        checkCanaries(p, b);
        m_live.erase(it);
        m_freed.insert(p);
        ++m_stats.frees;
        m_stats.bytes_in_use -= b.bytes;
        m_stats.bytes_reserved -= b.bytes;
    }
    // Poison the user region so stale reads through dangling pointers are
    // loud, then hand the block back to the wrapped arena.
    std::memset(p, poison_byte, b.bytes);
    m_under->deallocate(b.base);
}

void GuardArena::releaseCached() { m_under->releaseCached(); }

void GuardArena::forEachLive(const std::function<void(void*, std::size_t)>& cb) const {
    std::lock_guard<std::mutex> lk(m_mutex);
    for (const auto& [user, b] : m_live) cb(user, b.bytes);
}

GuardStats GuardArena::guardStats() const {
    std::lock_guard<std::mutex> lk(m_mutex);
    return m_gstats;
}

std::uint64_t GuardArena::checkAll() {
    std::lock_guard<std::mutex> lk(m_mutex);
    std::uint64_t found = 0;
    for (const auto& [user, b] : m_live) found += checkCanaries(user, b);
    return found;
}

std::string GuardArena::report() const {
    std::lock_guard<std::mutex> lk(m_mutex);
    std::ostringstream os;
    os << "[exa-guard] arena '" << m_name << "': " << m_stats.allocs << " allocs, "
       << m_stats.frees << " frees, " << m_live.size() << " live block(s)";
    if (m_gstats.leaked_blocks > 0) {
        os << " [LEAK: " << m_gstats.leaked_blocks << " block(s), "
           << m_gstats.leaked_bytes << " bytes]";
    }
    if (m_gstats.double_frees > 0) os << " [double frees: " << m_gstats.double_frees << "]";
    if (m_gstats.bad_frees > 0) os << " [bad frees: " << m_gstats.bad_frees << "]";
    if (m_gstats.canary_overflows > 0) {
        os << " [canary overflows: " << m_gstats.canary_overflows << "]";
    }
    if (m_gstats.canary_underflows > 0) {
        os << " [canary underflows: " << m_gstats.canary_underflows << "]";
    }
    os << '\n';
    return os.str();
}

// --- Global arena selection ----------------------------------------------

namespace {
// Null until first use or after setTheArena(nullptr); atomic because
// ensemble workers make their first allocations concurrently.
std::atomic<Arena*> g_the_arena{nullptr};
}

PoolArena& thePoolArena() {
    static PoolArena arena;
    return arena;
}

MallocArena& theMallocArena() {
    static MallocArena arena;
    return arena;
}

GuardArena& theGuardArena() {
    static GuardArena arena(&thePoolArena(), "the_guard_arena");
    return arena;
}

Arena* arenaFromName(const char* name) {
    if (name == nullptr) return &thePoolArena();
    const std::string n(name);
    if (n == "malloc") return &theMallocArena();
    if (n == "guard") return &theGuardArena();
    return &thePoolArena();
}

Arena* defaultArena() { return arenaFromName(std::getenv("EXA_ARENA")); }

Arena* The_Arena() {
    Arena* a = g_the_arena.load(std::memory_order_acquire);
    if (a != nullptr) return a;
    // Racing first callers resolve the same default; one of them installs it.
    Arena* expected = nullptr;
    a = defaultArena();
    return g_the_arena.compare_exchange_strong(expected, a, std::memory_order_acq_rel)
               ? a
               : expected;
}

void setTheArena(Arena* a) { g_the_arena.store(a, std::memory_order_release); }

} // namespace exa
