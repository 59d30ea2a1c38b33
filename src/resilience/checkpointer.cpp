#include "resilience/checkpointer.hpp"

#include "core/events.hpp"
#include "core/fault.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <stdexcept>

namespace exa::resilience {

namespace fs = std::filesystem;

namespace {

// Bounds of the Daly interval, in steps.
constexpr int kMinIntervalSteps = 1;
constexpr int kMaxIntervalSteps = 64;

} // namespace

int dalyIntervalSteps(double ckpt_seconds, double step_seconds,
                      double mtbf_steps, int min_interval, int max_interval) {
    if (step_seconds <= 0.0 || mtbf_steps <= 0.0) return max_interval;
    const double delta_steps = std::max(ckpt_seconds, 0.0) / step_seconds;
    const double t_opt = std::sqrt(2.0 * delta_steps * mtbf_steps);
    const int t = static_cast<int>(std::lround(t_opt));
    return std::clamp(t, min_interval, max_interval);
}

AsyncCheckpointer::AsyncCheckpointer(CheckpointerOptions opt)
    : m_opt(std::move(opt)) {
    if (m_opt.dir.empty()) {
        throw std::invalid_argument("AsyncCheckpointer: empty directory");
    }
    std::error_code ec;
    fs::create_directories(m_opt.dir, ec);
}

AsyncCheckpointer::~AsyncCheckpointer() {
    {
        std::unique_lock<std::mutex> lk(m_mutex);
        m_cv.wait(lk, [&] { return !m_busy; });
        m_stop = true;
    }
    m_cv.notify_all();
    if (m_drain.joinable()) m_drain.join();
}

double AsyncCheckpointer::mtbfSteps() const {
    // Observed failures sharpen the prior once there are two of them (one
    // failure gives no spacing information).
    if (m_failures_seen >= 2 && m_first_step_seen >= 0) {
        const int span = m_last_failure_step - m_first_step_seen;
        if (span > 0) return static_cast<double>(span) / m_failures_seen;
    }
    // MTBF implied by the armed fault config: the supervisor heartbeat
    // consults the rank-failure site once per step, so a probability spec
    // fails every 1/p steps in expectation.
    const fault::SiteStats st = fault::stats(fault::Site::RankFailure);
    if (st.armed) {
        if (st.spec.probability > 0.0) return 1.0 / st.spec.probability;
        if (st.spec.probability < 0.0 && st.spec.count <= 0) {
            return static_cast<double>(std::max<std::int64_t>(st.spec.stride, 1));
        }
    }
    return 1000.0;
}

int AsyncCheckpointer::intervalSteps() const {
    if (m_opt.interval_hint > 0) return m_opt.interval_hint;
    // Before any measurement, checkpoint eagerly at the minimum interval —
    // the first staging gives the Daly inputs.
    if (m_step_ema <= 0.0) return kMinIntervalSteps;
    return dalyIntervalSteps(m_staging_ema, m_step_ema, mtbfSteps(),
                             kMinIntervalSteps, kMaxIntervalSteps);
}

bool AsyncCheckpointer::due(int step) const {
    if (m_last_ckpt_step < 0) return true;
    return step - m_last_ckpt_step >= intervalSteps();
}

void AsyncCheckpointer::noteStepSeconds(double seconds) {
    constexpr double alpha = 0.3;
    m_step_ema = m_step_ema <= 0.0 ? seconds
                                   : alpha * seconds + (1.0 - alpha) * m_step_ema;
}

void AsyncCheckpointer::noteFailureAtStep(int step) {
    if (m_first_step_seen < 0) m_first_step_seen = step;
    m_last_failure_step = step;
    ++m_failures_seen;
}

std::string AsyncCheckpointer::nextSlot() const {
    std::lock_guard<std::mutex> lk(m_mutex);
    const std::string a = m_opt.dir + "/chk_A";
    if (!m_latest) return a;
    return m_latest->dir == a ? m_opt.dir + "/chk_B" : a;
}

bool AsyncCheckpointer::checkpoint(const std::vector<CheckpointField>& fields,
                                   Real time, int step) {
    {
        std::lock_guard<std::mutex> lk(m_mutex);
        if (m_busy) {
            ++m_skipped;
            return false;
        }
    }
    const auto t0 = std::chrono::steady_clock::now();
    auto snap = std::make_shared<CheckpointSnapshot>();
    snap->time = time;
    snap->step = step;
    snap->fields.reserve(fields.size());
    for (const CheckpointField& f : fields) {
        StagedField sf;
        sf.name = f.name;
        sf.level = stageLevel(*f.mf, f.geom);
        sf.owner.assign(f.mf->distributionMap().ranks().begin(),
                        f.mf->distributionMap().ranks().end());
        snap->fields.push_back(std::move(sf));
    }
    const double staged_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    m_last_staging_seconds = staged_s;
    constexpr double alpha = 0.3;
    m_staging_ema = m_staging_ema <= 0.0
                        ? staged_s
                        : alpha * staged_s + (1.0 - alpha) * m_staging_ema;
    m_last_ckpt_step = step;

    const std::string slot = nextSlot();
    if (!m_opt.async) {
        writeSnapshot(snap, slot);
        return true;
    }
    {
        std::lock_guard<std::mutex> lk(m_mutex);
        if (!m_drain.joinable()) {
            m_drain = std::thread([this] { drainLoop(); });
        }
        m_pending = std::move(snap);
        m_pending_slot = slot;
        m_busy = true;
    }
    m_cv.notify_all();
    return true;
}

void AsyncCheckpointer::drainLoop() {
    for (;;) {
        std::shared_ptr<CheckpointSnapshot> snap;
        std::string slot;
        {
            std::unique_lock<std::mutex> lk(m_mutex);
            m_cv.wait(lk, [&] { return m_stop || m_pending; });
            if (m_stop && !m_pending) return;
            snap = std::move(m_pending);
            m_pending = nullptr;
            slot = m_pending_slot;
        }
        writeSnapshot(snap, slot);
        {
            std::lock_guard<std::mutex> lk(m_mutex);
            m_busy = false;
        }
        m_cv.notify_all();
    }
}

void AsyncCheckpointer::writeSnapshot(
    const std::shared_ptr<CheckpointSnapshot>& snap, const std::string& slot) {
    // Stage the whole slot under <slot>.staging, then atomically publish.
    // Each field is itself written via writeStagedPlotfile's tmp+rename,
    // but the slot-level rename is the real commit point: a slot directory
    // either holds every field complete or does not exist.
    const std::string staging = slot + ".staging";
    std::int64_t bytes = 0;
    try {
        std::error_code ec;
        fs::remove_all(staging, ec);
        if (!fs::create_directories(staging)) {
            throw std::runtime_error("checkpoint: cannot create " + staging);
        }
        for (const StagedField& f : snap->fields) {
            bytes += writeStagedPlotfile(staging + "/" + f.name, {f.level},
                                         std::vector<std::string>(
                                             static_cast<std::size_t>(
                                                 f.level.ncomp),
                                             "c"),
                                         snap->time, snap->step);
        }
        fs::remove_all(slot, ec);
        fs::rename(staging, slot, ec);
        if (ec) {
            throw std::runtime_error("checkpoint: rename " + staging + " -> " +
                                     slot + " failed: " + ec.message());
        }
    } catch (const std::exception& e) {
        std::error_code ec;
        fs::remove_all(staging, ec);
        std::lock_guard<std::mutex> lk(m_mutex);
        m_last_error = e.what();
        return;
    }
    auto committed = std::make_shared<CheckpointSnapshot>(*snap);
    committed->dir = slot;
    {
        std::lock_guard<std::mutex> lk(m_mutex);
        m_latest = std::move(committed);
        ++m_written;
        m_bytes += bytes;
        m_last_error.clear();
    }
    ResilienceEvent ev;
    ev.checkpoints = 1;
    ev.checkpoint_bytes = bytes;
    events::publish(ev);
}

void AsyncCheckpointer::flush() {
    std::unique_lock<std::mutex> lk(m_mutex);
    m_cv.wait(lk, [&] { return !m_busy; });
}

std::shared_ptr<const CheckpointSnapshot> AsyncCheckpointer::latest() const {
    std::lock_guard<std::mutex> lk(m_mutex);
    return m_latest;
}

std::int64_t AsyncCheckpointer::checkpointsWritten() const {
    std::lock_guard<std::mutex> lk(m_mutex);
    return m_written;
}

std::int64_t AsyncCheckpointer::checkpointBytes() const {
    std::lock_guard<std::mutex> lk(m_mutex);
    return m_bytes;
}

} // namespace exa::resilience
