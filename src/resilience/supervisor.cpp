#include "resilience/supervisor.hpp"

#include "core/events.hpp"
#include "core/fault.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>

namespace exa::resilience {

namespace {

std::uint64_t mix(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

double seconds_since(const std::chrono::steady_clock::time_point& t0) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

std::string SupervisorReport::summary(const RetryStats& retry) const {
    std::ostringstream os;
    os << "resilience: steps=" << steps_run << " (replayed " << replay_steps
       << "), ranks failed/recovered=" << ranks_failed << "/" << ranks_recovered
       << ", restores localized/full=" << localized_restores << "/"
       << full_rollbacks << "\n";
    os << "checkpoints: written=" << checkpoints_written << " ("
       << checkpoint_bytes << " bytes), skipped-busy=" << checkpoints_skipped
       << ", daly interval=" << daly_interval_steps << " steps\n";
    os << "recovery: disk bytes=" << recovery_disk_bytes
       << ", wall=" << recovery_seconds << " s (steps wall=" << step_seconds
       << " s)";
    os << "\nstep-guard: guarded=" << retry.steps_guarded
       << ", retries=" << retry.retries << ", degraded=" << retry.degraded;
    return os.str();
}

ResilienceSupervisor::ResilienceSupervisor(Driver& driver, SupervisorOptions opt)
    : m_driver(driver), m_opt(opt), m_ckpt(opt.checkpoint),
      m_alive(static_cast<std::size_t>(std::max(1, opt.nranks)), true) {}

int ResilienceSupervisor::ranksAlive() const {
    int n = 0;
    for (const bool a : m_alive) n += a ? 1 : 0;
    return n;
}

std::vector<int> ResilienceSupervisor::aliveList() const {
    std::vector<int> out;
    for (std::size_t r = 0; r < m_alive.size(); ++r) {
        if (m_alive[r]) out.push_back(static_cast<int>(r));
    }
    return out;
}

void ResilienceSupervisor::runSteps(int nsteps) {
    const int target = m_driver.stepCount() + nsteps;
    try {
        while (m_driver.stepCount() < target) {
            maybeCheckpoint();
            const Real dt = m_driver.estimateDt();
            const auto t0 = std::chrono::steady_clock::now();
            m_driver.step(dt);
            const double s = seconds_since(t0);
            m_ckpt.noteStepSeconds(s);
            m_report.step_seconds += s;
            ++m_report.steps_run;
            if (m_opt.heartbeat) heartbeat();
        }
    } catch (...) {
        // Keep the report coherent for post-mortems (the campaign harness
        // records it even for runs that die unrecoverably).
        m_ckpt.flush();
        syncCheckpointStats();
        throw;
    }
    m_ckpt.flush();
    syncCheckpointStats();
}

void ResilienceSupervisor::syncCheckpointStats() {
    m_report.checkpoints_written = m_ckpt.checkpointsWritten();
    m_report.checkpoint_bytes = m_ckpt.checkpointBytes();
    m_report.checkpoints_skipped = m_ckpt.checkpointsSkipped();
    m_report.daly_interval_steps = m_ckpt.intervalSteps();
}

std::string ResilienceSupervisor::summary() const {
    std::string s = m_report.summary(m_driver.retryStats());
    const MgEvent e = m_driver.mgTotals();
    if (e.vcycles > 0 || e.fmg_cycles > 0) {
        std::ostringstream os;
        os << "\nmg: fmg=" << e.fmg_cycles << " vcycles=" << e.vcycles
           << " sweeps=" << e.sweeps << " agg-copies=" << e.agg_copies
           << " (" << e.agg_bytes << " bytes)";
        s += os.str();
    }
    return s;
}

void ResilienceSupervisor::maybeCheckpoint() {
    if (!m_ckpt.due(m_driver.stepCount())) return;
    const std::vector<CheckpointField> fields = m_driver.checkpointFields();
    m_ckpt.checkpoint(fields, m_driver.time(), m_driver.stepCount());
}

bool ResilienceSupervisor::heartbeat() {
    if (!fault::shouldFire(fault::Site::RankFailure)) return false;
    const std::vector<int> alive = aliveList();
    if (alive.size() <= 1) {
        throw std::runtime_error(
            "ResilienceSupervisor: rank failure with no surviving rank — "
            "unrecoverable");
    }
    const int victim = alive[static_cast<std::size_t>(
        mix(m_opt.victim_seed ^ static_cast<std::uint64_t>(m_kills)) %
        alive.size())];
    killRank(victim);
    m_ckpt.noteFailureAtStep(m_driver.stepCount());
    recover();
    return true;
}

void ResilienceSupervisor::killRank(int victim) {
    if (m_opt.verbose) {
        std::fprintf(stderr, "[supervisor] rank %d failed at step %d\n", victim,
                     m_driver.stepCount());
    }
    m_alive[static_cast<std::size_t>(victim)] = false;
    ++m_kills;
    ++m_report.ranks_failed;
    // Emulate the loss: every fab the victim owned is gone. Poisoning with
    // NaN makes any accidental use of dead data fail validation loudly
    // instead of silently passing stale values through recovery.
    const Real nan = std::numeric_limits<Real>::quiet_NaN();
    std::vector<CheckpointField> fields = m_driver.checkpointFields();
    for (CheckpointField& f : fields) {
        const DistributionMapping& dm = f.mf->distributionMap();
        for (std::size_t i = 0; i < f.mf->size(); ++i) {
            if (dm[i] == victim) f.mf->fab(static_cast<int>(i)).setVal(nan);
        }
    }
}

DistributionMapping ResilienceSupervisor::shrinkMapping(const BoxArray& ba) const {
    const std::vector<int> alive = aliveList();
    std::vector<double> cost(ba.size());
    for (std::size_t i = 0; i < ba.size(); ++i) {
        cost[i] = static_cast<double>(ba[i].numPts());
    }
    // Build a cost-weighted mapping over n_alive packed slots, then remap
    // each slot onto a surviving rank id — the strategy builders only know
    // contiguous rank ranges, the health mask does not.
    DistributionMapping packed(ba, static_cast<int>(alive.size()), cost,
                               m_opt.strategy);
    std::vector<int> table(ba.size());
    for (std::size_t i = 0; i < ba.size(); ++i) {
        table[i] = alive[static_cast<std::size_t>(packed[i])];
    }
    return DistributionMapping(std::move(table), m_opt.nranks);
}

void ResilienceSupervisor::shrinkFields(std::vector<CheckpointField>& fields) {
    // One shrink mapping per distinct BoxArray, so fields sharing a layout
    // (state + phi + divu) land on identical mappings and stay co-located.
    std::map<std::uint64_t, DistributionMapping> built;
    for (CheckpointField& f : fields) {
        const BoxArray& ba = f.mf->boxArray();
        auto it = built.find(ba.id());
        if (it == built.end()) {
            it = built.emplace(ba.id(), shrinkMapping(ba)).first;
        }
        f.mf->Redistribute(it->second, "recovery");
    }
}

std::int64_t ResilienceSupervisor::restoreFromSnapshot(
    const CheckpointSnapshot& snap, std::vector<CheckpointField>& fields) {
    assert(fields.size() == snap.fields.size());
    // Phase 1: fetch + CRC-verify every disk payload first. A corrupted
    // fab throws here, before any live fab has been touched, so the
    // caller's full-rollback fallback starts from an unmodified state.
    struct DiskFab {
        std::size_t field;
        int fab;
        StagedFab data;
    };
    std::vector<DiskFab> from_disk;
    std::int64_t disk_bytes = 0;
    for (std::size_t i = 0; i < snap.fields.size(); ++i) {
        const StagedField& sf = snap.fields[i];
        bool have_header = false;
        PlotfileHeader hdr;
        for (std::size_t j = 0; j < sf.level.fabs.size(); ++j) {
            if (m_alive[static_cast<std::size_t>(sf.owner[j])]) continue;
            // The victim's share of the in-memory staged copy died with
            // it; this fab must come from the committed slot on disk.
            const std::string dir = snap.dir + "/" + sf.name;
            if (!have_header) {
                hdr = readPlotfileHeader(dir);
                have_header = true;
            }
            DiskFab df;
            df.field = i;
            df.fab = static_cast<int>(j);
            df.data = readPlotfileFab(dir, hdr, 0, static_cast<int>(j));
            disk_bytes +=
                static_cast<std::int64_t>(df.data.data.size() * sizeof(Real));
            from_disk.push_back(std::move(df));
        }
    }
    // Phase 2: apply — surviving ranks' fabs from memory, the dead rank's
    // from the verified disk payloads.
    for (std::size_t i = 0; i < snap.fields.size(); ++i) {
        const StagedField& sf = snap.fields[i];
        for (std::size_t j = 0; j < sf.level.fabs.size(); ++j) {
            if (m_alive[static_cast<std::size_t>(sf.owner[j])]) {
                applyStagedFab(*fields[i].mf, static_cast<int>(j),
                               sf.level.fabs[j]);
            }
        }
    }
    for (const DiskFab& df : from_disk) {
        applyStagedFab(*fields[df.field].mf, df.fab, df.data);
    }
    return disk_bytes;
}

std::int64_t ResilienceSupervisor::restoreFromSlot(
    const std::string& slot, std::vector<CheckpointField>& fields) {
    std::int64_t bytes = 0;
    for (CheckpointField& f : fields) {
        bytes += readPlotfileLevel(slot + "/" + f.name, 0, *f.mf);
    }
    return bytes;
}

void ResilienceSupervisor::recover() {
    const auto t0 = std::chrono::steady_clock::now();
    const int failed_at = m_driver.stepCount();
    // The freshest checkpoint may still be in flight on the drain thread;
    // recovery wants it committed (or failed) before choosing a source.
    m_ckpt.flush();
    const std::shared_ptr<const CheckpointSnapshot> snap = m_ckpt.latest();
    if (!snap || !snap->valid()) {
        throw std::runtime_error(
            "ResilienceSupervisor: rank failure before any committed "
            "checkpoint — unrecoverable");
    }

    auto dmBuilder = [this](const BoxArray& ba, int) {
        return shrinkMapping(ba);
    };

    std::vector<CheckpointField> fields = m_driver.checkpointFields();
    // Live layouts match the snapshot when field names and per-fab boxes
    // agree (single-level drivers always match; AMR diverges when a
    // regrid ran after the checkpoint).
    bool match = fields.size() == snap->fields.size();
    for (std::size_t i = 0; match && i < fields.size(); ++i) {
        const StagedField& sf = snap->fields[i];
        match = fields[i].name == sf.name &&
                fields[i].mf->size() == sf.level.fabs.size();
        for (std::size_t j = 0; match && j < sf.level.fabs.size(); ++j) {
            match = fields[i].mf->box(static_cast<int>(j)) == sf.level.fabs[j].box;
        }
    }

    if (match) {
        shrinkFields(fields);
    } else {
        std::vector<std::vector<Box>> boxes(snap->fields.size());
        for (std::size_t i = 0; i < snap->fields.size(); ++i) {
            for (const StagedFab& sf : snap->fields[i].level.fabs) {
                boxes[i].push_back(sf.box);
            }
        }
        m_driver.remakeForRestore(boxes, dmBuilder);
        fields = m_driver.checkpointFields();
    }

    std::int64_t disk_bytes = 0;
    Real restored_time = snap->time;
    int restored_step = snap->step;
    try {
        disk_bytes = restoreFromSnapshot(*snap, fields);
        ++m_report.localized_restores;
    } catch (const std::exception& e) {
        // The newest slot lost a fab we need (e.g. a checkpoint-bit-flip
        // landed on it). Full rollback from the other slot: every fab from
        // disk, CRC-verified by readPlotfileLevel.
        if (m_opt.verbose) {
            std::fprintf(stderr, "[supervisor] localized restore failed (%s); "
                                 "rolling back to the other slot\n",
                         e.what());
        }
        const std::string base = m_opt.checkpoint.dir;
        const std::string other = snap->dir == base + "/chk_A"
                                      ? base + "/chk_B"
                                      : base + "/chk_A";
        PlotfileHeader other_hdr;
        std::vector<std::vector<Box>> other_boxes;
        try {
            // The other slot is older: its grids may differ from both the
            // live hierarchy and the newest snapshot. Gather its per-field
            // boxes from the (self-checksummed) headers first. Probing by
            // the current field names means a slot written with a
            // different *level count* (AMR) reads as missing and lands in
            // the unrecoverable branch — full rollback across a level
            // birth/death is out of scope.
            other_boxes.resize(fields.size());
            bool other_match = true;
            for (std::size_t i = 0; i < fields.size(); ++i) {
                other_hdr = readPlotfileHeader(other + "/" + fields[i].name);
                other_boxes[i] = other_hdr.boxes[0];
                other_match = other_match &&
                              other_boxes[i].size() == fields[i].mf->size();
                for (std::size_t j = 0;
                     other_match && j < other_boxes[i].size(); ++j) {
                    other_match = fields[i].mf->box(static_cast<int>(j)) ==
                                  other_boxes[i][j];
                }
                restored_time = other_hdr.time;
                restored_step = other_hdr.step;
            }
            if (!other_match) {
                m_driver.remakeForRestore(other_boxes, dmBuilder);
                fields = m_driver.checkpointFields();
            }
            disk_bytes = restoreFromSlot(other, fields);
            ++m_report.full_rollbacks;
        } catch (const std::exception& e2) {
            throw std::runtime_error(
                std::string("ResilienceSupervisor: both checkpoint slots "
                            "unusable — unrecoverable (newest: ") +
                e.what() + "; other: " + e2.what() + ")");
        }
    }

    m_driver.resetTime(restored_time, restored_step);
    m_driver.finishRestore();

    const int replay = failed_at - restored_step;
    ++m_report.ranks_recovered;
    m_report.replay_steps += replay;
    m_report.recovery_disk_bytes += disk_bytes;
    m_report.recovery_seconds += seconds_since(t0);
    ResilienceEvent ev;
    ev.ranks_recovered = 1;
    ev.replay_steps = replay;
    ev.recovery_bytes = disk_bytes;
    events::publish(ev);
    if (m_opt.verbose) {
        std::fprintf(stderr,
                     "[supervisor] recovered: rewound to step %d (replaying %d "
                     "steps), %lld bytes from disk\n",
                     restored_step, replay,
                     static_cast<long long>(disk_bytes));
    }
}

} // namespace exa::resilience
