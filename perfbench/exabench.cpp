// exabench: one pass of one ExaStro benchmark workload.
//
// perfbench/run.py runs this program twice per workload, each pass in its
// own process:
//
//   * the timed pass (--pass timed) attaches nothing and repeats episodes
//     (init, then step to the scenario's max-steps) until --seconds have
//     elapsed, always finishing the episode it is in;
//   * the traced pass (--pass traced, Backend::SimGpu) runs one episode
//     with a DeviceModel and a CommLedger attached, records the
//     benchmark's own spans around every call into a layer, snapshots the
//     public layer counters at each step boundary, and halfway through and
//     after the last step times public layer calls on a copy of the live
//     state.
//
// Only the scenario key=value configs generated by run.py reach the
// library, through the public ScenarioRegistry / EnsembleRunner API; no
// code under src/ is changed or instrumented. The last line of stdout is
// one JSON object with the raw samples, counters, gate verdicts and
// per-layer metrics of the pass; run.py turns it into the reported
// metrics.
//
// Usage:
//   exabench --pass timed|traced --backend serial|openmp|simgpu
//            --threads T --seconds S [--trace-out FILE]
//            --tenant <scenario> key=value ... [--tenant <scenario> ...]
//
// One tenant runs as a plain driver loop; several run as an ensemble on
// an EnsembleRunner. T is the OpenMP thread count and the ensemble's
// worker count.

#include "castro/castro_amr.hpp"
#include "castro/hydro.hpp"
#include "castro/sedov.hpp"
#include "comm/ledger.hpp"
#include "core/arena.hpp"
#include "core/executor.hpp"
#include "core/timer.hpp"
#include "ensemble/runner.hpp"
#include "ensemble/scenarios.hpp"
#include "maestro/maestro.hpp"
#include "mesh/copier_cache.hpp"
#include "perf/device_model.hpp"

#include <omp.h>
#include <sys/resource.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

using namespace exa;
using namespace exa::ensemble;

// --- small utilities -------------------------------------------------------

double nowSeconds() {
    static const auto t0 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Minimal JSON emitter: enough for flat objects, arrays and numbers.
class Json {
public:
    Json& key(const std::string& k) {
        sep();
        str(k);
        m_os << ':';
        m_fresh = true;
        return *this;
    }
    Json& num(double v) {
        sep();
        if (std::isfinite(v)) {
            char buf[40];
            std::snprintf(buf, sizeof buf, "%.17g", v);
            m_os << buf;
        } else {
            m_os << "null";
        }
        return *this;
    }
    Json& integer(std::int64_t v) {
        sep();
        m_os << v;
        return *this;
    }
    Json& boolean(bool v) {
        sep();
        m_os << (v ? "true" : "false");
        return *this;
    }
    Json& string(const std::string& s) {
        sep();
        str(s);
        return *this;
    }
    Json& open(char c) {
        sep();
        m_os << c;
        m_fresh = true;
        return *this;
    }
    Json& close(char c) {
        m_os << c;
        m_fresh = false;
        return *this;
    }
    Json& numbers(const std::vector<double>& v) {
        open('[');
        for (double x : v) num(x);
        return close(']');
    }
    std::string text() const { return m_os.str(); }

private:
    void sep() {
        if (!m_fresh) m_os << ',';
        m_fresh = false;
    }
    void str(const std::string& s) {
        m_os << '"';
        for (char c : s) {
            if (c == '"' || c == '\\') {
                m_os << '\\' << c;
            } else if (static_cast<unsigned char>(c) < 0x20) {
                m_os << ' ';
            } else {
                m_os << c;
            }
        }
        m_os << '"';
    }
    std::ostringstream m_os;
    bool m_fresh = true;
};

// --- spans -----------------------------------------------------------------
//
// Kept in memory and written at exit as Chrome trace-event JSON. Only the
// traced pass records them, and it is single-threaded (SimGpu forces one
// ensemble worker), so the log needs no lock.

struct Span {
    std::string name;
    double t0 = 0.0, t1 = 0.0;
    int parent = -1;
    std::vector<std::pair<std::string, double>> args;
};

class SpanLog {
public:
    bool enabled = false;

    int begin(std::string name) {
        if (!enabled) return -1;
        Span s;
        s.name = std::move(name);
        s.t0 = nowSeconds();
        s.parent = m_stack.empty() ? -1 : m_stack.back();
        m_spans.push_back(std::move(s));
        m_stack.push_back(static_cast<int>(m_spans.size()) - 1);
        return m_stack.back();
    }
    void end(int id) {
        if (id < 0) return;
        m_spans[static_cast<std::size_t>(id)].t1 = nowSeconds();
        m_stack.pop_back();
    }
    void arg(int id, const std::string& k, double v) {
        if (id >= 0) m_spans[static_cast<std::size_t>(id)].args.emplace_back(k, v);
    }
    const std::vector<Span>& spans() const { return m_spans; }

private:
    std::vector<Span> m_spans;
    std::vector<int> m_stack;
};

SpanLog g_spans;

class SpanScope {
public:
    explicit SpanScope(std::string name) : m_id(g_spans.begin(std::move(name))) {}
    ~SpanScope() { g_spans.end(m_id); }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;
    int id() const { return m_id; }

private:
    int m_id;
};

// Per span name: count, inclusive and self seconds (self = duration minus
// the part covered by direct children).
struct SpanRow {
    std::int64_t count = 0;
    double total = 0.0, self = 0.0;
};

std::map<std::string, SpanRow> spanTable(const std::vector<Span>& spans) {
    std::vector<double> child(spans.size(), 0.0);
    for (const Span& s : spans)
        if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.t1 - s.t0;
    std::map<std::string, SpanRow> rows;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        SpanRow& r = rows[spans[i].name];
        const double d = spans[i].t1 - spans[i].t0;
        ++r.count;
        r.total += d;
        r.self += d - child[i];
    }
    return rows;
}

bool writeChromeTrace(const std::string& path, const std::vector<Span>& spans) {
    std::ofstream out(path);
    if (!out) return false;
    Json j;
    j.open('{').key("displayTimeUnit").string("ms").key("traceEvents").open('[');
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        j.open('{')
            .key("name").string(s.name)
            .key("cat").string("exabench")
            .key("ph").string("X")
            .key("ts").num(s.t0 * 1.0e6)
            .key("dur").num((s.t1 - s.t0) * 1.0e6)
            .key("pid").integer(1)
            .key("tid").integer(1)
            .key("args").open('{')
            .key("id").integer(static_cast<std::int64_t>(i))
            .key("parent").integer(s.parent);
        for (const auto& [k, v] : s.args) j.key(k).num(v);
        j.close('}').close('}');
    }
    j.close(']').close('}');
    out << j.text() << '\n';
    return static_cast<bool>(out);
}

// --- traced-pass context ---------------------------------------------------

// Timer regions the library already records; read per step from the
// calling thread's current registry (the tenant's, inside an ensemble).
const char* const kRegions[] = {"castro::hydro",   "castro::react",
                                "castro::gravity", "maestro::advect",
                                "maestro::buoyancy", "maestro::react",
                                "maestro::projection", "mg/solve"};

struct LayerSums {
    std::int64_t steps = 0;
    std::int64_t zone_steps = 0;
    std::uint64_t allocs = 0, slow_allocs = 0;
    std::uint64_t cc_hits = 0, cc_misses = 0;
    double cc_build_s = 0.0;
    std::int64_t fine_advances = 0;
    std::map<std::string, double> region_s;
    BurnGridStats burn;
    // AMR steps only: wall ms and whether the step regridded.
    std::vector<double> amr_step_ms;
    std::vector<char> amr_regrid;
    // Probe samples (ms, or ns per zone for molRhs).
    std::vector<double> fillboundary_ms, fillpatch_ms, molrhs_serial_ns,
        molrhs_omp_ns;
};

struct Tracing {
    DeviceModel dev;
    CommLedger ledger;
    int nranks = 1; // largest rank count of any tenant's grid
    LayerSums sums;
};

// --- typed access to the built-in scenarios --------------------------------

// One driver step through the typed driver (identical to
// Scenario::advanceOnce(dt), which discards the burn statistics).
BurnGridStats driverStep(Scenario& s, Real dt) {
    if (auto* p = dynamic_cast<SedovScenario*>(&s)) return p->driver().step(dt);
    if (auto* p = dynamic_cast<BubbleScenario*>(&s)) return p->driver().step(dt);
    if (auto* p = dynamic_cast<AmrBlastScenario*>(&s)) return p->driver().step(dt);
    if (auto* p = dynamic_cast<WdCollisionScenario*>(&s))
        return p->collision().castro->step(dt);
    s.advanceOnce(dt);
    return {};
}

castro::CastroAmr* amrOf(Scenario& s) {
    auto* p = dynamic_cast<AmrBlastScenario*>(&s);
    return p != nullptr ? &p->driver() : nullptr;
}

castro::Castro* castroOf(Scenario& s) {
    if (auto* p = dynamic_cast<SedovScenario*>(&s)) return &p->driver();
    if (auto* p = dynamic_cast<WdCollisionScenario*>(&s))
        return p->collision().castro.get();
    return nullptr;
}

// The single-level (or AMR level-0) state of a built-in scenario.
const MultiFab* baseState(Scenario& s) {
    if (castro::Castro* c = castroOf(s)) return &c->state();
    if (castro::CastroAmr* a = amrOf(s)) return &a->state(0);
    if (auto* b = dynamic_cast<BubbleScenario*>(&s)) return &b->driver().state();
    return nullptr;
}

// --- probes ----------------------------------------------------------------

// Median wall ms of `reps` calls of f.
template <typename F>
double timeMs(int reps, F&& f) {
    std::vector<double> t;
    for (int r = 0; r < reps; ++r) {
        WallTimer w;
        f();
        t.push_back(w.seconds() * 1.0e3);
    }
    return median(t);
}

// A copy of the live state (valid + ghosts) in the malloc arena, so the
// probe's own storage stays out of the pool arena's counters.
struct StateCopy {
    MultiFab mf;
    explicit StateCopy(const MultiFab& s)
        : mf(s.boxArray(), s.distributionMap(), s.nComp(), s.nGrow(),
             &theMallocArena()) {
        MultiFab::Copy(mf, s, 0, 0, s.nComp(), s.nGrow());
    }
};

void probeFillBoundary(const MultiFab& live, LayerSums& sums) {
    SpanScope span("probe.mesh");
    StateCopy c(live);
    sums.fillboundary_ms.push_back(timeMs(3, [&] { c.mf.FillBoundary(); }));
}

void probeMolRhs(const MultiFab& live, const Geometry& geom,
                 const ReactionNetwork& net, const Eos& eos,
                 castro::Reconstruction recon, LayerSums& sums) {
    SpanScope span("probe.castro");
    StateCopy c(live);
    c.mf.FillBoundary();
    MultiFab dudt(live.boxArray(), live.distributionMap(), live.nComp(), 0,
                  &theMallocArena());
    const double zones = static_cast<double>(live.boxArray().numPts());
    auto call = [&] { castro::molRhs(c.mf, dudt, geom, net, eos, nullptr, recon); };
    const double serial_ms = timeMs(2, call);
    double omp_ms = 0.0;
    {
        ScopedBackend omp(Backend::OpenMP);
        omp_ms = timeMs(2, call);
    }
    sums.molrhs_serial_ns.push_back(serial_ms * 1.0e6 / zones);
    sums.molrhs_omp_ns.push_back(omp_ms * 1.0e6 / zones);
}

// The AMR blast's hydro runs the default network with a gamma = 1.4 EOS
// and PPM (AmrBlastParams::build); the probe reuses the same setup.
const ReactionNetwork& amrProbeNetwork() {
    static const ReactionNetwork net = makeNetworkByName("ignition_simple");
    return net;
}

// The traced pass probes twice per episode: halfway and after the last
// step.
bool probeDue(int step, int max_steps) {
    return step == std::max(1, max_steps / 2) || step == max_steps;
}

// Time public layer calls on copies of the live state. Runs between steps
// (outside every step span) on the Serial backend, so it launches nothing
// on the device model; the ledger is detached so its messages are not
// counted.
void runProbes(Scenario& s, Tracing& tr) {
    tr.ledger.detach();
    {
        ScopedBackend serial(Backend::Serial);
        if (const MultiFab* st = baseState(s)) probeFillBoundary(*st, tr.sums);
        if (castro::Castro* c = castroOf(s)) {
            probeMolRhs(c->state(), c->geom(), c->network(), c->eos(),
                        c->options().reconstruction, tr.sums);
        } else if (castro::CastroAmr* a = amrOf(s)) {
            if (a->finestLevel() >= 1) {
                SpanScope span("probe.mesh");
                const MultiFab& fine = a->state(1);
                MultiFab dst(fine.boxArray(), fine.distributionMap(), fine.nComp(),
                             fine.nGrow(), &theMallocArena());
                tr.sums.fillpatch_ms.push_back(
                    timeMs(3, [&] { a->fillPatch(1, dst); }));
            }
            probeMolRhs(a->state(0), a->geom(0), amrProbeNetwork(),
                        Eos{GammaLawEos{1.4}}, castro::Reconstruction::PPM, tr.sums);
        }
    }
    tr.ledger.attach();
}

// --- correctness gate ------------------------------------------------------

struct GateResult {
    bool ok = true;
    std::string why;
    void fail(const std::string& msg) {
        if (ok) why = msg;
        ok = false;
    }
};

// Largest |sum of mass fractions - 1| over valid zones; species start at
// component `first`, divided by component `rho_comp` when it is >= 0
// (Castro stores partial densities rho X).
double speciesSumError(const MultiFab& s, int first, int nspec, int rho_comp) {
    double worst = 0.0;
    for (std::size_t f = 0; f < s.size(); ++f) {
        const auto u = s.const_array(static_cast<int>(f));
        const Box& b = s.box(static_cast<int>(f));
        for (int k = b.smallEnd(2); k <= b.bigEnd(2); ++k)
            for (int j = b.smallEnd(1); j <= b.bigEnd(1); ++j)
                for (int i = b.smallEnd(0); i <= b.bigEnd(0); ++i) {
                    double sum = 0.0;
                    for (int n = 0; n < nspec; ++n) sum += u(i, j, k, first + n);
                    if (rho_comp >= 0) sum /= u(i, j, k, rho_comp);
                    worst = std::max(worst, std::fabs(sum - 1.0));
                }
    }
    return worst;
}

// Physics tolerances of a finished episode; nothing here pins bits.
// Sedov: the repository's own test allows 25% at 32^3, plus (here) three
// zones for the two-zone energy deposit and the smeared shock front,
// which dominate the measured radius early in a run.
constexpr double kSedovRadiusRtol = 0.25;
constexpr double kSedovRadiusZones = 3.0;
constexpr double kMassRtol = 1.0e-10;
constexpr double kSpeciesTol = 1.0e-10;
constexpr double kBubbleRunawayT = 2.0e9;

GateResult gateScenario(Scenario& s, double mass0) {
    GateResult g;
    const int want = s.limits().max_steps;
    if (s.stepCount() != want)
        g.fail(s.name() + " retired after " + std::to_string(s.stepCount()) +
               " of " + std::to_string(want) + " steps");
    if (auto* p = dynamic_cast<SedovScenario*>(&s)) {
        const auto& prm = p->params();
        const double r = castro::measureShockRadius(p->driver(), prm.rho0);
        const double r_ref =
            castro::sedovShockRadius(p->time(), prm.E, prm.rho0, prm.gamma);
        const double dx = p->driver().geom().cellSize(0);
        if (!(std::fabs(r - r_ref) <= kSedovRadiusRtol * r_ref + kSedovRadiusZones * dx))
            g.fail("sedov shock radius " + std::to_string(r) + " vs " +
                   std::to_string(r_ref));
        const MultiFab& st = p->driver().state();
        if (!(speciesSumError(st, castro::StateLayout::UFS,
                              st.nComp() - castro::StateLayout::UFS,
                              castro::StateLayout::URHO) < kSpeciesTol))
            g.fail("sedov species do not sum to 1");
    } else if (castro::CastroAmr* a = amrOf(s)) {
        if (!a->syncPointSumsAgree()) g.fail("amr sync-point sums disagree");
        const double m = a->totalMass();
        if (!(std::fabs(m - mass0) <= kMassRtol * std::fabs(mass0)))
            g.fail("amr mass drift " + std::to_string((m - mass0) / mass0));
    } else if (auto* b = dynamic_cast<BubbleScenario*>(&s)) {
        const MultiFab& st = b->driver().state();
        const int first = maestro::MaestroLayout::QFS;
        if (!(speciesSumError(st, first, st.nComp() - first, -1) < kSpeciesTol))
            g.fail("bubble species do not sum to 1");
        if (!(b->driver().maxTemperature() < kBubbleRunawayT))
            g.fail("bubble max T " + std::to_string(b->driver().maxTemperature()) +
                   " K is a runaway");
    } else if (auto* w = dynamic_cast<WdCollisionScenario*>(&s)) {
        if (w->ignited()) g.fail("wd-collision ignited");
    }
    return g;
}

// --- the benchmark's scenario decorator ------------------------------------
//
// Wraps a registry-built scenario: times init and every step (the only
// instrumentation of the timed pass), converts a throwing step into a
// failed, retired tenant, and in the traced pass records spans, counter
// deltas at the step boundaries and probes. Every virtual forwards, and
// maxDt() uses the inner limits, so the dt sequence is unchanged.
class BenchScenario final : public Scenario {
public:
    BenchScenario(std::unique_ptr<Scenario> inner, Tracing* tr, double t_origin)
        : Scenario(inner->name(), inner->limits()), m_inner(std::move(inner)),
          m_tr(tr), m_t_origin(t_origin) {}

    void init() override {
        SpanScope span("setup");
        if (m_tr != nullptr) {
            m_tr->ledger.detach();
            m_tr->dev.detach();
        }
        WallTimer w;
        m_inner->init();
        setup_s = w.seconds();
        if (m_tr != nullptr) {
            m_tr->dev.attach();
            m_tr->ledger.attach();
            if (const MultiFab* st = baseState(*m_inner))
                m_tr->nranks = std::max(m_tr->nranks, st->distributionMap().numRanks());
        }
        if (castro::CastroAmr* a = amrOf(*m_inner)) mass0 = a->totalMass();
        state_bytes = m_inner->stateBytes();
    }
    bool initialized() const override { return m_inner->initialized(); }
    Real time() const override { return m_inner->time(); }
    int stepCount() const override { return m_inner->stepCount(); }
    Real estimateDt() const override { return m_inner->estimateDt(); }
    using Scenario::advanceOnce;
    void advanceOnce(Real dt) override {
        ++attempted;
        try {
            if (m_tr != nullptr) {
                tracedStep(dt);
            } else {
                WallTimer w;
                burn.merge(driverStep(*m_inner, dt));
                step_ms.push_back(w.seconds() * 1.0e3);
            }
            zone_steps += m_inner->zones();
        } catch (const std::exception& e) {
            failed = true;
            error = e.what();
        }
        if (finished()) finish_t = nowSeconds() - m_t_origin;
    }
    bool finished() const override { return failed || m_inner->finished(); }
    std::int64_t zones() const override { return m_inner->zones(); }
    std::uint64_t stateBytes() const override { return m_inner->stateBytes(); }
    std::uint32_t stateCrc() const override { return m_inner->stateCrc(); }
    std::string summary() const override { return m_inner->summary(); }

    Scenario& inner() { return *m_inner; }

    double setup_s = 0.0;
    double probe_s = 0.0;  // traced pass: wall spent in probes
    double finish_t = 0.0; // seconds since the episode started
    double mass0 = 0.0;
    std::uint64_t state_bytes = 0;
    std::int64_t attempted = 0;
    std::int64_t zone_steps = 0;
    bool failed = false;
    std::string error;
    std::vector<double> step_ms;
    BurnGridStats burn;

private:
    void tracedStep(Real dt) {
        LayerSums& sums = m_tr->sums;
        TimerRegistry& timers = TimerRegistry::current();
        castro::CastroAmr* amr = amrOf(*m_inner);
        const ArenaStats a0 = The_Arena()->stats();
        const CopierCache::Stats c0 = CopierCache::instance().stats();
        const std::int64_t msg0 = m_tr->ledger.totalMessages();
        const std::int64_t bytes0 = m_tr->ledger.totalBytes();
        const std::int64_t launch0 = m_tr->dev.numLaunches();
        const std::int64_t fine0 = amr != nullptr && amr->maxLevel() >= 1
                                       ? amr->advanceCount(1)
                                       : 0;
        std::map<std::string, double> r0;
        for (const char* r : kRegions) r0[r] = timers.seconds(r);

        double ms = 0.0;
        BurnGridStats b;
        {
            SpanScope span("step");
            WallTimer w;
            b = driverStep(*m_inner, dt);
            ms = w.seconds() * 1.0e3;
            const ArenaStats a1 = The_Arena()->stats();
            const CopierCache::Stats c1 = CopierCache::instance().stats();
            sums.allocs += a1.allocs - a0.allocs;
            sums.slow_allocs += a1.slow_allocs - a0.slow_allocs;
            sums.cc_hits += c1.hits - c0.hits;
            sums.cc_misses += c1.misses - c0.misses;
            sums.cc_build_s += c1.build_seconds - c0.build_seconds;
            for (const char* r : kRegions) sums.region_s[r] += timers.seconds(r) - r0[r];
            const int id = span.id();
            g_spans.arg(id, "launches", static_cast<double>(m_tr->dev.numLaunches() - launch0));
            g_spans.arg(id, "messages", static_cast<double>(m_tr->ledger.totalMessages() - msg0));
            g_spans.arg(id, "bytes", static_cast<double>(m_tr->ledger.totalBytes() - bytes0));
            g_spans.arg(id, "arena_allocs", static_cast<double>(a1.allocs - a0.allocs));
            g_spans.arg(id, "arena_slow_allocs", static_cast<double>(a1.slow_allocs - a0.slow_allocs));
            g_spans.arg(id, "copier_hits", static_cast<double>(c1.hits - c0.hits));
            g_spans.arg(id, "copier_misses", static_cast<double>(c1.misses - c0.misses));
            g_spans.arg(id, "burn_zones", static_cast<double>(b.zones));
        }
        step_ms.push_back(ms);
        burn.merge(b);
        sums.burn.merge(b);
        ++sums.steps;
        sums.zone_steps += m_inner->zones();
        if (amr != nullptr) {
            if (amr->maxLevel() >= 1) sums.fine_advances += amr->advanceCount(1) - fine0;
            sums.amr_step_ms.push_back(ms);
            sums.amr_regrid.push_back(amr->regrid_interval > 0 && amr->maxLevel() > 0 &&
                                      m_inner->stepCount() % amr->regrid_interval == 0);
        }
        if (probeDue(m_inner->stepCount(), limits().max_steps)) {
            WallTimer w;
            runProbes(*m_inner, *m_tr);
            probe_s += w.seconds();
        }
    }

    std::unique_ptr<Scenario> m_inner;
    Tracing* m_tr;
    double m_t_origin;
};

// --- command line ----------------------------------------------------------

struct TenantSpec {
    std::string scenario;
    std::vector<std::pair<std::string, std::string>> kv;
};

struct Args {
    std::string pass = "timed";
    std::string backend = "serial";
    int threads = 1;
    double seconds = 1.0;
    std::string trace_out;
    std::vector<TenantSpec> tenants;
};

Args parseArgs(int argc, char** argv) {
    Args a;
    auto value = [&](int& i) -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(std::string(argv[i]) + " needs a value");
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const std::string t = argv[i];
        if (t == "--pass") a.pass = value(i);
        else if (t == "--backend") a.backend = value(i);
        else if (t == "--threads") a.threads = std::stoi(value(i));
        else if (t == "--seconds") a.seconds = std::stod(value(i));
        else if (t == "--trace-out") a.trace_out = value(i);
        else if (t == "--tenant") a.tenants.push_back({value(i), {}});
        else {
            const auto eq = t.find('=');
            if (eq == std::string::npos || eq == 0 || a.tenants.empty())
                throw std::invalid_argument("unexpected argument: " + t);
            a.tenants.back().kv.emplace_back(t.substr(0, eq), t.substr(eq + 1));
        }
    }
    if (a.pass != "timed" && a.pass != "traced")
        throw std::invalid_argument("--pass must be timed or traced");
    if (a.tenants.empty()) throw std::invalid_argument("no --tenant given");
    if (a.threads < 1) throw std::invalid_argument("--threads must be >= 1");
    return a;
}

std::unique_ptr<BenchScenario> makeTenant(const TenantSpec& t, Tracing* tr,
                                          double t_origin) {
    ScenarioConfig cfg;
    for (const auto& [k, v] : t.kv) cfg.set(k, v);
    return std::make_unique<BenchScenario>(makeScenarioByName(t.scenario, cfg), tr,
                                           t_origin);
}

// --- one episode -----------------------------------------------------------

struct Episode {
    double setup_s = 0.0;
    double wall_s = 0.0;     // init + steps (single) or EnsembleReport wall
    double step_s = 0.0;     // wall spent stepping (see runSingle/runEnsemble)
    double probe_s = 0.0;    // traced pass: part of wall_s spent in probes
    double sims_per_hour = 0.0;
    std::int64_t zone_steps = 0;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::vector<std::vector<double>> step_ms; // per tenant
    std::vector<std::uint32_t> crc; // per tenant
    std::vector<std::uint64_t> state_bytes;
    GateResult gate;
    BurnGridStats burn;
    // Ensemble only.
    double busy_frac = 0.0, tail_s = 0.0;
    std::int64_t steals = 0;
    int workers = 1;
};

void collectTenant(BenchScenario& t, Episode& ep) {
    ep.attempted += t.attempted;
    if (t.failed) {
        ep.failed += t.attempted;
        ep.gate.fail(t.name() + " threw: " + t.error);
    } else {
        GateResult g = gateScenario(t.inner(), t.mass0);
        if (!g.ok) ep.gate.fail(g.why);
    }
    ep.probe_s += t.probe_s;
    ep.crc.push_back(t.stateCrc());
    ep.state_bytes.push_back(t.state_bytes);
    ep.step_ms.push_back(t.step_ms);
    ep.burn.merge(t.burn);
}

// Hands the pool arena's cached blocks, and the C heap's free pages, back
// to the system, so the next set-up starts cold: it pays its slow
// allocations and first-touch page faults as the first set-up of a
// process does.
void dropCaches() {
    The_Arena()->releaseCached();
#if defined(__GLIBC__)
    malloc_trim(0);
#endif
}

// Set-up is short next to an episode's steps, so the timed pass sets the
// scenario up several times per episode (keeping the last) and reports
// the median. Every set-up starts cold (dropCaches).
constexpr int kSetupRepeats = 5;

Episode runSingle(const Args& a, Tracing* tr) {
    Episode ep;
    const double t0 = nowSeconds();
    std::unique_ptr<BenchScenario> t;
    std::vector<double> setups;
    double t_kept = t0; // start of the kept scenario's set-up
    for (int r = 0; r < (tr != nullptr ? 1 : kSetupRepeats); ++r) {
        t.reset();
        dropCaches();
        t_kept = nowSeconds();
        t = makeTenant(a.tenants.front(), tr, t0);
        t->init();
        setups.push_back(t->setup_s);
    }
    ep.setup_s = median(setups);
    while (!t->finished()) t->advanceOnce();
    ep.wall_s = nowSeconds() - t_kept;
    // Stepping wall: the sum of the step times (single-threaded loop).
    for (double ms : t->step_ms) ep.step_s += ms * 1.0e-3;
    ep.zone_steps = t->zone_steps;
    ep.sims_per_hour = ep.wall_s > 0.0 ? 3600.0 / ep.wall_s : 0.0;
    collectTenant(*t, ep);
    return ep;
}

Episode runEnsemble(const Args& a, Tracing* tr) {
    Episode ep;
    EnsembleOptions opt;
    opt.workers = a.threads;
    opt.quantum_steps = 1;
    if (tr != nullptr) {
        opt.ledger = &tr->ledger;
        opt.device = &tr->dev;
    }
    dropCaches(); // cold set-ups, as in runSingle
    EnsembleRunner runner(opt);
    const double t0 = nowSeconds();
    std::vector<BenchScenario*> tenants;
    for (const TenantSpec& spec : a.tenants) {
        auto t = makeTenant(spec, tr, t0);
        tenants.push_back(t.get());
        runner.add(std::move(t));
    }
    const EnsembleReport rep = runner.run();
    ep.workers = rep.workers;
    ep.wall_s = rep.wall_seconds;
    ep.sims_per_hour = rep.sims_per_hour;
    ep.steals = rep.steals;
    std::vector<double> finish;
    double busy = 0.0;
    for (int id = 0; id < runner.numTenants(); ++id) {
        BenchScenario& t = *tenants[static_cast<std::size_t>(id)];
        ep.setup_s += runner.tenantTimers(id).seconds("ensemble/init");
        ep.zone_steps += rep.tenants[static_cast<std::size_t>(id)].zone_steps;
        busy += rep.tenants[static_cast<std::size_t>(id)].wall_seconds;
        finish.push_back(t.finish_t);
        collectTenant(t, ep);
        if (rep.tenants[static_cast<std::size_t>(id)].crc != ep.crc.back())
            ep.gate.fail("runner CRC differs from the tenant's state CRC");
    }
    // The runner inits each tenant inside its first quantum, so its wall
    // holds the inits too. Stepping wall: that wall less the inits, spread
    // over the workers that ran them.
    ep.step_s = rep.wall_seconds - ep.setup_s / rep.workers;
    ep.busy_frac = rep.wall_seconds > 0.0 ? busy / (rep.workers * rep.wall_seconds) : 0.0;
    // Tail: from the moment fewer tenants are live than workers (some
    // worker is idle for good) to the last retirement.
    std::sort(finish.begin(), finish.end());
    const int n = static_cast<int>(finish.size());
    const int idle_from = std::max(0, n - ep.workers);
    ep.tail_s = finish.back() - finish[static_cast<std::size_t>(idle_from)];
    return ep;
}

// --- per-layer metrics of the traced pass ----------------------------------

double kernelSeconds(const DeviceModel& dev, bool (*match)(const std::string&)) {
    double s = 0.0;
    for (const auto& [name, ks] : dev.kernelStats())
        if (match(name)) s += ks.seconds;
    return s;
}

std::map<std::string, double> layerMetrics(const Tracing& tr) {
    const LayerSums& s = tr.sums;
    const double steps = std::max<std::int64_t>(1, s.steps);
    const double mib = 1024.0 * 1024.0;
    auto per_step = [&](double v) { return v / steps; };
    auto region_ms = [&](const char* r) {
        auto it = s.region_s.find(r);
        return it == s.region_s.end() ? 0.0 : it->second * 1.0e3 / steps;
    };
    const auto& ks = tr.dev.kernelStats();
    auto kernel = [&](const char* name) {
        auto it = ks.find(name);
        return it == ks.end() ? DeviceModel::KernelStats{} : it->second;
    };
    RankLayout layout;
    layout.ranks_per_node = 6;
    layout.nodes = (tr.nranks + layout.ranks_per_node - 1) / layout.ranks_per_node;

    std::map<std::string, double> m;
    // core
    m["core.arena.allocs_per_step"] = per_step(static_cast<double>(s.allocs));
    m["core.arena.slow_allocs_per_step"] = per_step(static_cast<double>(s.slow_allocs));
    m["core.arena.hwm_mib"] = static_cast<double>(The_Arena()->stats().hwm_bytes) / mib;
    m["core.launches_per_step"] = per_step(static_cast<double>(tr.dev.numLaunches()));
    // mesh
    m["mesh.fillboundary_ms"] = median(s.fillboundary_ms);
    m["mesh.fillpatch_ms"] = median(s.fillpatch_ms);
    {
        std::vector<double> regrid, other;
        for (std::size_t i = 0; i < s.amr_step_ms.size(); ++i)
            (s.amr_regrid[i] ? regrid : other).push_back(s.amr_step_ms[i]);
        m["mesh.regrid_step_excess_ms"] =
            regrid.empty() || other.empty() ? 0.0 : median(regrid) - median(other);
    }
    const double lookups = static_cast<double>(s.cc_hits + s.cc_misses);
    m["mesh.copier_cache.hit_ratio"] =
        lookups > 0 ? static_cast<double>(s.cc_hits) / lookups : 0.0;
    m["mesh.copier_cache.lookups_per_step"] = per_step(lookups);
    m["mesh.copier_cache.build_ms_per_step"] = per_step(s.cc_build_s * 1.0e3);
    m["mesh.fab_copy_launches_per_step"] =
        per_step(static_cast<double>(kernel("fab_copy").launches));
    m["mesh.fab_copy_modeled_ms_per_step"] = per_step(kernel("fab_copy").seconds * 1.0e3);
    m["mesh.fine_advances_per_step"] = per_step(static_cast<double>(s.fine_advances));
    // comm
    const double msgs = static_cast<double>(tr.ledger.totalMessages());
    m["comm.messages_per_step"] = per_step(msgs);
    m["comm.bytes_per_step"] = per_step(static_cast<double>(tr.ledger.totalBytes()));
    m["comm.offnode_bytes_per_step"] =
        per_step(static_cast<double>(tr.ledger.offNodeBytes(layout)));
    m["comm.split_phase_frac"] =
        msgs > 0 ? static_cast<double>(tr.ledger.splitPhaseMessages()) / msgs : 0.0;
    // castro
    m["castro.hydro_ms_per_step"] = region_ms("castro::hydro");
    m["castro.molrhs_ns_per_zone"] = median(s.molrhs_serial_ns);
    {
        const double omp = median(s.molrhs_omp_ns);
        m["castro.molrhs_thread_speedup"] = omp > 0 ? median(s.molrhs_serial_ns) / omp : 0.0;
    }
    m["castro.hydro_modeled_ms_per_step"] =
        per_step(1.0e3 * kernelSeconds(tr.dev, [](const std::string& n) {
                     return n.rfind("hydro_", 0) == 0 || n == "cons_update" ||
                            n == "enforce_consistency";
                 }));
    m["castro.gravity_ms_per_step"] = region_ms("castro::gravity");
    // microphysics
    const double burn_s =
        (s.region_s.count("castro::react") ? s.region_s.at("castro::react") : 0.0) +
        (s.region_s.count("maestro::react") ? s.region_s.at("maestro::react") : 0.0);
    m["micro.burn_ms_per_step"] = per_step(burn_s * 1.0e3);
    m["micro.burn_zones_per_step"] = per_step(static_cast<double>(s.burn.zones));
    m["micro.integrator_steps_per_zone"] = s.burn.meanSteps();
    m["micro.burn_imbalance"] = s.burn.zones > 0 ? s.burn.imbalance() : 0.0;
    m["micro.ns_per_integrator_step"] =
        s.burn.total_steps > 0 ? burn_s * 1.0e9 / static_cast<double>(s.burn.total_steps)
                               : 0.0;
    m["micro.burn_failures"] = static_cast<double>(s.burn.failures);
    m["micro.nuclear_burn_modeled_ms_per_step"] =
        per_step(1.0e3 * kernelSeconds(tr.dev, [](const std::string& n) {
                     return n.rfind("nuclear_burn", 0) == 0;
                 }));
    // solvers: the composite MG solve region, or the MAESTRO projection
    // (whose MG solve has no region of its own).
    m["solvers.mg_ms_per_step"] = region_ms("mg/solve") + region_ms("maestro::projection");
    m["solvers.mg_vcycles_per_step"] = per_step(static_cast<double>(tr.ledger.mgVcycles()));
    m["solvers.mg_sweeps_per_step"] = per_step(static_cast<double>(tr.ledger.mgSweeps()));
    m["solvers.mg_modeled_ms_per_step"] =
        per_step(1.0e3 * kernelSeconds(tr.dev, [](const std::string& n) {
                     return n.rfind("mg_", 0) == 0;
                 }));
    // maestro
    m["maestro.advect_ms_per_step"] = region_ms("maestro::advect");
    m["maestro.buoyancy_ms_per_step"] = region_ms("maestro::buoyancy");
    // perf
    const double elapsed = tr.dev.elapsedSeconds();
    m["perf.stream_overlap"] = elapsed > 0 ? tr.dev.serializedSeconds() / elapsed : 0.0;
    // modeled end-to-end inputs
    m["modeled.gpu_elapsed_s"] = elapsed;
    m["modeled.gpu_serialized_s"] = tr.dev.serializedSeconds();
    m["modeled.net_phase_s"] = tr.ledger.phaseTime(layout, NetworkModel{});
    m["modeled.zone_steps"] = static_cast<double>(s.zone_steps);
    m["modeled.steps"] = static_cast<double>(s.steps);
    m["modeled.nodes"] = layout.nodes;
    m["modeled.ranks"] = tr.nranks;
    return m;
}

// --- output ----------------------------------------------------------------

std::string buildInfo() {
    std::string s = EXA_BENCH_BUILD_TYPE;
#if defined(__OPTIMIZE__)
    s += " optimized";
#else
    s += " unoptimized";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    s += " sanitized";
#endif
    return s;
}

int run(const Args& a) {
    ExecConfig::setBackend(backendFromName(a.backend.c_str()));
    omp_set_num_threads(a.threads);
    const bool traced = a.pass == "traced";
    const bool ensemble = a.tenants.size() > 1;
    std::unique_ptr<Tracing> tr;
    if (traced) {
        tr = std::make_unique<Tracing>();
        g_spans.enabled = true;
        tr->dev.attach();
        if (!ensemble) tr->ledger.attach();
    }

    std::vector<Episode> eps;
    const double t_start = nowSeconds();
    {
        SpanScope run_span("run");
        do {
            eps.push_back(ensemble ? runEnsemble(a, tr.get()) : runSingle(a, tr.get()));
            if (!eps.back().gate.ok) break;
        } while (!traced && nowSeconds() - t_start < a.seconds);
    }
    if (tr) {
        tr->dev.detach();
        tr->ledger.detach();
    }

    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);

    Json j;
    j.open('{');
    j.key("pass").string(a.pass).key("backend").string(a.backend);
    j.key("threads").integer(a.threads).key("build").string(buildInfo());
    j.key("compiler").string(__VERSION__);
    j.key("peak_rss_mib").num(static_cast<double>(ru.ru_maxrss) / 1024.0);
    j.key("run_s").num(nowSeconds() - t_start);
    j.key("episodes").open('[');
    for (const Episode& e : eps) {
        j.open('{');
        j.key("setup_s").num(e.setup_s).key("wall_s").num(e.wall_s);
        j.key("step_s").num(e.step_s).key("probe_s").num(e.probe_s);
        j.key("sims_per_hour").num(e.sims_per_hour);
        j.key("zone_steps").integer(e.zone_steps);
        j.key("attempted").integer(e.attempted).key("failed").integer(e.failed);
        j.key("gate_ok").boolean(e.gate.ok).key("gate_why").string(e.gate.why);
        j.key("crc").open('[');
        for (auto c : e.crc) j.integer(c);
        j.close(']');
        j.key("state_bytes").open('[');
        for (auto b : e.state_bytes) j.integer(static_cast<std::int64_t>(b));
        j.close(']');
        j.key("workers").integer(e.workers).key("steals").integer(e.steals);
        j.key("busy_frac").num(e.busy_frac).key("tail_s").num(e.tail_s);
        j.key("burn_failures").integer(e.burn.failures);
        j.key("step_ms").open('[');
        for (const auto& v : e.step_ms) j.numbers(v);
        j.close(']');
        j.close('}');
    }
    j.close(']');
    if (tr) {
        j.key("layers").open('{');
        for (const auto& [k, v] : layerMetrics(*tr)) j.key(k).num(v);
        j.close('}');
        j.key("spans").open('[');
        for (const auto& [name, row] : spanTable(g_spans.spans())) {
            j.open('{').key("name").string(name).key("count").integer(row.count);
            j.key("total_ms").num(row.total * 1.0e3).key("self_ms").num(row.self * 1.0e3);
            j.close('}');
        }
        j.close(']');
        if (!a.trace_out.empty()) {
            const bool ok = writeChromeTrace(a.trace_out, g_spans.spans());
            j.key("trace_file").string(ok ? a.trace_out : "");
        }
    }
    j.close('}');
    std::cout << j.text() << std::endl;
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::exception& e) {
        std::cerr << "exabench: " << e.what() << '\n';
        return 2;
    }
}
