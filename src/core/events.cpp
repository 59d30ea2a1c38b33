#include "core/events.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace exa {

namespace {
struct Subscriber {
    std::uint64_t id;
    EventListener fn;
};
// constinit: the list exists before, and outlives, any listener with
// static storage duration that subscribes or unsubscribes.
constinit std::vector<Subscriber> g_subscribers;
constinit std::uint64_t g_next_id = 0;
} // namespace

void events::publish(const Event& e) {
    for (const Subscriber& s : g_subscribers) s.fn(e);
}

bool events::active() { return !g_subscribers.empty(); }

EventSubscription::EventSubscription(EventListener fn) : m_id(++g_next_id) {
    g_subscribers.push_back({m_id, std::move(fn)});
}

EventSubscription& EventSubscription::operator=(EventSubscription&& o) noexcept {
    if (this != &o) {
        reset();
        m_id = std::exchange(o.m_id, 0);
    }
    return *this;
}

void EventSubscription::reset() {
    if (m_id == 0) return;
    std::erase_if(g_subscribers,
                  [id = m_id](const Subscriber& s) { return s.id == id; });
    m_id = 0;
}

} // namespace exa
