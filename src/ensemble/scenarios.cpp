#include "ensemble/scenarios.hpp"

#include "core/parallel_for.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace exa::ensemble {

namespace {

// RunLimits from the shared config keys. Scenarios with neither a time
// nor a step cap would never retire from an ensemble, so an unlimited
// config falls back to `default_steps`.
RunLimits limitsFromConfig(const ScenarioConfig& cfg, int default_steps) {
    RunLimits lim;
    lim.t_stop = cfg.getReal("t-stop", 0.0);
    lim.max_steps = cfg.getInt("max-steps", 0);
    lim.max_dt = cfg.getReal("max-dt", 0.0);
    if (lim.t_stop <= 0.0 && lim.max_steps <= 0) lim.max_steps = default_steps;
    return lim;
}

} // namespace

// --- DriverScenario ------------------------------------------------------

std::int64_t DriverScenario::zones() const {
    std::int64_t z = 0;
    for (const MultiFab* s : m_driver->levelStates()) {
        z += s->boxArray().numPts();
    }
    return z;
}

std::uint64_t DriverScenario::stateBytes() const {
    std::uint64_t b = 0;
    for (const CheckpointField& f : m_driver->checkpointFields()) {
        b += stateBytesOf(*f.mf);
    }
    return b;
}

std::uint32_t DriverScenario::stateCrc() const {
    std::uint32_t crc = 0;
    for (const MultiFab* s : m_driver->levelStates()) {
        crc = ensemble::stateCrc(*s, crc);
    }
    return crc;
}

// --- AmrBlastParams ------------------------------------------------------

std::unique_ptr<castro::Castro>
AmrBlastParams::build(const ReactionNetwork& net) const {
    using namespace castro;
    Box dom({0, 0, 0}, {ncell - 1, ncell - 1, ncell - 1});
    Geometry geom(dom, {0, 0, 0}, {1, 1, 1});
    AmrInfo info;
    info.max_level = max_level;
    info.ref_ratio = ref_ratio;
    info.max_grid_size = max_grid_size;
    info.blocking_factor = blocking_factor;
    info.nranks = nranks;

    CastroOptions opt;
    opt.bc = DomainBC::allOutflow();
    opt.cfl = cfl;
    opt.reconstruction = Reconstruction::PPM;
    opt.gravity = gravity;

    const Real r0 = r_init;
    const Real e_in = 1.0 / ((4.0 / 3.0) * constants::pi * std::pow(r0, 3));
    Castro::InitFn init = [=](Real x, Real y, Real z) {
        Castro::InitialZone zn;
        zn.rho = 1.0;
        const Real r = std::sqrt((x - 0.5) * (x - 0.5) + (y - 0.5) * (y - 0.5) +
                                 (z - 0.5) * (z - 0.5));
        zn.p = r <= r0 ? 0.4 * e_in : 1.0e-5;
        zn.X = {1.0, 0.0};
        return zn;
    };
    const Real T_tag = tag_temp;
    Castro::TagFn tag = [T_tag](int, const Geometry&, const MultiFab& s,
                                MultiFab& tags) {
        for (std::size_t f = 0; f < tags.size(); ++f) {
            auto t = tags.array(static_cast<int>(f));
            auto u = s.const_array(static_cast<int>(f));
            ParallelFor(tags.box(static_cast<int>(f)), [=](int i, int j, int k) {
                if (u(i, j, k, StateLayout::UTEMP) > T_tag) t(i, j, k) = 1.0;
            });
        }
    };

    Eos eos{GammaLawEos{1.4}};
    auto amr = std::make_unique<Castro>(geom, info, net, eos, opt, init, tag);
    amr->regrid_interval = regrid_interval;
    amr->init();
    return amr;
}

// --- SedovScenario -------------------------------------------------------

SedovScenario::SedovScenario(const castro::SedovParams& p,
                             const RunLimits& limits, ReactionNetwork net)
    : DriverScenario("sedov", limits), m_params(p), m_net(std::move(net)) {}

SedovScenario::SedovScenario(const ScenarioConfig& cfg)
    : DriverScenario("sedov", limitsFromConfig(cfg, 10)),
      m_net(makeNetworkByName(cfg.getString("network", "ignition_simple"))) {
    m_params.ncell = cfg.getInt("ncell", m_params.ncell);
    m_params.max_grid_size = cfg.getInt("max-grid-size", m_params.max_grid_size);
    m_params.nranks = cfg.getInt("nranks", m_params.nranks);
    m_params.rho0 = cfg.getReal("rho0", m_params.rho0);
    m_params.p0 = cfg.getReal("p0", m_params.p0);
    m_params.E = cfg.getReal("E", m_params.E);
    m_params.r_init = cfg.getReal("r-init", m_params.r_init);
    m_params.gamma = cfg.getReal("gamma", m_params.gamma);
    m_params.cfl = cfg.getReal("cfl", m_params.cfl);
    cfg.requireAllConsumed("sedov");
}

void SedovScenario::init() {
    m_castro = m_params.build(m_net);
    m_driver = m_castro.get();
}

std::string SedovScenario::summary() const {
    std::ostringstream os;
    os << "sedov " << m_params.ncell << "^3: t=" << m_castro->time()
       << " steps=" << m_castro->stepCount()
       << " R_shock=" << measureShockRadius(*m_castro, m_params.rho0)
       << " rho_max=" << m_castro->maxDensity();
    return os.str();
}

// --- BubbleScenario ------------------------------------------------------

BubbleScenario::BubbleScenario(const maestro::BubbleParams& p,
                               const RunLimits& limits, ReactionNetwork net)
    : DriverScenario("bubble", limits), m_params(p), m_net(std::move(net)) {}

BubbleScenario::BubbleScenario(const ScenarioConfig& cfg)
    : DriverScenario("bubble", limitsFromConfig(cfg, 8)),
      m_net(makeNetworkByName(cfg.getString("network", "ignition_simple"))) {
    m_params.ncell = cfg.getInt("ncell", m_params.ncell);
    m_params.max_grid_size = cfg.getInt("max-grid-size", m_params.max_grid_size);
    m_params.nranks = cfg.getInt("nranks", m_params.nranks);
    m_params.domain_width = cfg.getReal("domain-width", m_params.domain_width);
    m_params.rho_base = cfg.getReal("rho-base", m_params.rho_base);
    m_params.T_base = cfg.getReal("T-base", m_params.T_base);
    m_params.T_bubble = cfg.getReal("T-bubble", m_params.T_bubble);
    m_params.bubble_radius_frac =
        cfg.getReal("bubble-radius-frac", m_params.bubble_radius_frac);
    m_params.bubble_height_frac =
        cfg.getReal("bubble-height-frac", m_params.bubble_height_frac);
    m_params.gravity = cfg.getReal("gravity", m_params.gravity);
    m_params.do_react = cfg.getBool("do-react", m_params.do_react);
    cfg.requireAllConsumed("bubble");
}

void BubbleScenario::init() {
    m_maestro = m_params.build(m_net);
    m_driver = m_maestro.get();
}

std::string BubbleScenario::summary() const {
    std::ostringstream os;
    os << "bubble " << m_params.ncell << "^3: t=" << m_maestro->time()
       << " steps=" << m_maestro->stepCount()
       << " maxT=" << m_maestro->maxTemperature()
       << " height=" << m_maestro->bubbleHeight();
    return os.str();
}

// --- AmrBlastScenario ----------------------------------------------------

AmrBlastScenario::AmrBlastScenario(const AmrBlastParams& p,
                                   const RunLimits& limits, ReactionNetwork net)
    : DriverScenario("amr-blast", limits), m_params(p), m_net(std::move(net)) {}

AmrBlastScenario::AmrBlastScenario(const ScenarioConfig& cfg)
    : DriverScenario("amr-blast", limitsFromConfig(cfg, 10)),
      m_net(makeNetworkByName(cfg.getString("network", "ignition_simple"))) {
    m_params.ncell = cfg.getInt("ncell", m_params.ncell);
    m_params.max_level = cfg.getInt("max-level", m_params.max_level);
    m_params.ref_ratio = cfg.getInt("ref-ratio", m_params.ref_ratio);
    m_params.max_grid_size = cfg.getInt("max-grid-size", m_params.max_grid_size);
    m_params.blocking_factor =
        cfg.getInt("blocking-factor", m_params.blocking_factor);
    m_params.nranks = cfg.getInt("nranks", m_params.nranks);
    m_params.cfl = cfg.getReal("cfl", m_params.cfl);
    m_params.r_init = cfg.getReal("r-init", m_params.r_init);
    m_params.tag_temp = cfg.getReal("tag-temp", m_params.tag_temp);
    m_params.regrid_interval =
        cfg.getInt("regrid-interval", m_params.regrid_interval);
    m_params.gravity =
        castro::gravityTypeFromName(cfg.getString("gravity", "none"));
    cfg.requireAllConsumed("amr-blast");
}

void AmrBlastScenario::init() {
    m_amr = m_params.build(m_net);
    m_driver = m_amr.get();
}

std::string AmrBlastScenario::summary() const {
    std::ostringstream os;
    os << "amr-blast " << m_params.ncell << "^3+" << m_amr->finestLevel()
       << "lev: t=" << m_amr->time() << " steps=" << m_amr->stepCount()
       << " fine-cover=" << m_amr->coveredFraction(1)
       << " mass=" << m_amr->totalMass();
    return os.str();
}

// --- WdCollisionScenario -------------------------------------------------

WdCollisionScenario::WdCollisionScenario(const castro::WdCollisionParams& p,
                                         const RunLimits& limits)
    : DriverScenario("wd-collision", limits), m_params(p) {}

WdCollisionScenario::WdCollisionScenario(const ScenarioConfig& cfg)
    : DriverScenario("wd-collision", limitsFromConfig(cfg, 10)) {
    m_params.ncell = cfg.getInt("ncell", m_params.ncell);
    m_params.max_grid_size = cfg.getInt("max-grid-size", m_params.max_grid_size);
    m_params.nranks = cfg.getInt("nranks", m_params.nranks);
    m_params.rho_c = cfg.getReal("rho-c", m_params.rho_c);
    m_params.T_star = cfg.getReal("T-star", m_params.T_star);
    m_params.separation_in_diameters =
        cfg.getReal("separation", m_params.separation_in_diameters);
    m_params.approach_velocity =
        cfg.getReal("approach-velocity", m_params.approach_velocity);
    m_params.domain_width = cfg.getReal("domain-width", m_params.domain_width);
    m_params.ambient_rho = cfg.getReal("ambient-rho", m_params.ambient_rho);
    m_params.ambient_T = cfg.getReal("ambient-T", m_params.ambient_T);
    m_params.cfl = cfg.getReal("cfl", m_params.cfl);
    m_params.do_react = cfg.getBool("do-react", m_params.do_react);
    m_params.ignition_T = cfg.getReal("ignition-T", m_params.ignition_T);
    m_params.network = cfg.getString("network", m_params.network);
    m_params.gravity =
        castro::gravityTypeFromName(cfg.getString("gravity", "monopole"));
    cfg.requireAllConsumed("wd-collision");
}

void WdCollisionScenario::init() {
    m_wd = m_params.build();
    m_driver = m_wd.castro.get();
}

bool WdCollisionScenario::finished() const {
    return Scenario::finished() || ignited();
}

bool WdCollisionScenario::ignited() const {
    return m_wd.castro->maxTemperature() >= m_params.ignition_T;
}

std::string WdCollisionScenario::summary() const {
    std::ostringstream os;
    os << "wd-collision " << m_params.ncell << "^3 ("
       << m_wd.castro->network().name() << "): t=" << m_wd.castro->time()
       << " steps=" << m_wd.castro->stepCount()
       << " maxT=" << m_wd.castro->maxTemperature()
       << (ignited() ? " IGNITED" : "");
    return os.str();
}

// --- Registry ------------------------------------------------------------

ScenarioRegistry::ScenarioRegistry() {
    add("sedov", [](const ScenarioConfig& cfg) -> std::unique_ptr<Scenario> {
        return std::make_unique<SedovScenario>(cfg);
    });
    add("bubble", [](const ScenarioConfig& cfg) -> std::unique_ptr<Scenario> {
        return std::make_unique<BubbleScenario>(cfg);
    });
    add("amr-blast", [](const ScenarioConfig& cfg) -> std::unique_ptr<Scenario> {
        return std::make_unique<AmrBlastScenario>(cfg);
    });
    add("wd-collision",
        [](const ScenarioConfig& cfg) -> std::unique_ptr<Scenario> {
            return std::make_unique<WdCollisionScenario>(cfg);
        });
}

ScenarioRegistry& ScenarioRegistry::instance() {
    static ScenarioRegistry reg;
    return reg;
}

void ScenarioRegistry::add(const std::string& name, Factory f) {
    for (auto& [n, fac] : m_factories) {
        if (n == name) {
            fac = std::move(f);
            return;
        }
    }
    m_factories.emplace_back(name, std::move(f));
}

bool ScenarioRegistry::contains(const std::string& name) const {
    for (const auto& [n, f] : m_factories) {
        if (n == name) return true;
    }
    return false;
}

std::vector<std::string> ScenarioRegistry::names() const {
    std::vector<std::string> out;
    out.reserve(m_factories.size());
    for (const auto& [n, f] : m_factories) out.push_back(n);
    std::sort(out.begin(), out.end());
    return out;
}

std::unique_ptr<Scenario>
ScenarioRegistry::make(const std::string& name, const ScenarioConfig& cfg) const {
    for (const auto& [n, f] : m_factories) {
        if (n == name) return f(cfg);
    }
    std::string msg = "unknown scenario \"" + name + "\"; registered:";
    for (const auto& n : names()) msg += " " + n;
    throw std::invalid_argument(msg);
}

std::unique_ptr<Scenario> makeScenarioByName(const std::string& name,
                                             const ScenarioConfig& cfg) {
    return ScenarioRegistry::instance().make(name, cfg);
}

} // namespace exa::ensemble
