#pragma once

#include <atomic>
#include <cstdint>

namespace exa {

// The identity shared by every copy of one BoxArray or DistributionMapping
// (DESIGN §8). A fresh build or a mutation mints a new one; its value comes
// from one process-wide counter for both kinds, so a value names exactly
// one layout and is never reused. The CopierCache marks an identity when
// it keys a plan or partition on it, and when the last copy of a marked
// identity dies the cache forgets every entry keyed on it. An unmarked
// identity dies without touching the cache. The constructor and destructor
// live in copier_cache.cpp, beside the cache they notify.
class LayoutId {
public:
    LayoutId();
    ~LayoutId();
    LayoutId(const LayoutId&) = delete;
    LayoutId& operator=(const LayoutId&) = delete;

    std::uint64_t value() const { return m_value; }
    // Called by the CopierCache, under its lock, when an entry is keyed
    // on this identity.
    void markKeyed() const { m_keyed.store(true, std::memory_order_release); }

private:
    const std::uint64_t m_value;
    mutable std::atomic<bool> m_keyed{false};
};

} // namespace exa
