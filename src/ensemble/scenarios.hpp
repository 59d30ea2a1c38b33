#pragma once

#include "castro/castro.hpp"
#include "castro/sedov.hpp"
#include "castro/wd_collision.hpp"
#include "ensemble/registry.hpp"
#include "maestro/maestro.hpp"

#include <memory>

namespace exa::ensemble {

// Problem config for the AMR blast scenario (the examples/amr_blast.cpp
// setup as a params struct, following the SedovParams/BubbleParams
// pattern): a blast wave on a coarse base grid with `max_level` levels of
// refinement tracking the hot region.
struct AmrBlastParams {
    int ncell = 16; // base-grid zones per dimension
    int max_level = 1;
    int ref_ratio = 2;
    int max_grid_size = 16;
    int blocking_factor = 4;
    int nranks = 4;
    Real cfl = 0.3;
    Real r_init = 0.125;     // blast deposit radius (unit domain)
    Real tag_temp = 1.0e-8;  // refine zones whose T exceeds this
    int regrid_interval = 4;
    // Self-gravity: None or Poisson (the composite-grid FMG solve
    // coupling every AMR level).
    castro::GravityType gravity = castro::GravityType::None;

    // Build a subcycled Castro hierarchy initialized with the blast
    // (PPM reconstruction, outflow boundaries) and init() it.
    std::unique_ptr<castro::Castro> build(const ReactionNetwork& net) const;
};

// A scenario served by one exa::Driver: clock, dt, step and accounting
// all come from the driver, so every built-in scenario shares them.
// init() builds the driver and points m_driver at it.
class DriverScenario : public Scenario {
public:
    using Scenario::Scenario;

    bool initialized() const override { return m_driver != nullptr; }
    Real time() const override { return m_driver->time(); }
    int stepCount() const override { return m_driver->stepCount(); }
    Real estimateDt() const override { return m_driver->estimateDt(); }
    using Scenario::advanceOnce;
    void advanceOnce(Real dt) override { m_driver->step(dt); }
    // Zones of every level's prognostic state.
    std::int64_t zones() const override;
    // Bytes of every checkpoint field (Maestro's projection companions
    // round-trip with the state, so they count toward residency too).
    std::uint64_t stateBytes() const override;
    // CRC over every level's prognostic state, coarse to fine.
    std::uint32_t stateCrc() const override;

protected:
    Driver* m_driver = nullptr;
};

// --- The built-in scenarios ----------------------------------------------
//
// Each has a typed-params constructor (programmatic use: the params struct
// plus RunLimits plus a network) and a ScenarioConfig constructor (the
// registry path: every field reachable as a key=value setting, including
// "network", "t-stop", "max-steps", "max-dt"). Construction stores config;
// init() builds the driver, so the EnsembleRunner can attribute the
// allocations to the owning tenant.

class SedovScenario final : public DriverScenario {
public:
    SedovScenario(const castro::SedovParams& p, const RunLimits& limits,
                  ReactionNetwork net = makeIgnitionSimple());
    explicit SedovScenario(const ScenarioConfig& cfg);

    void init() override;
    std::string summary() const override;

    castro::Castro& driver() { return *m_castro; }
    const castro::SedovParams& params() const { return m_params; }

private:
    castro::SedovParams m_params;
    ReactionNetwork m_net;
    std::unique_ptr<castro::Castro> m_castro;
};

class BubbleScenario final : public DriverScenario {
public:
    BubbleScenario(const maestro::BubbleParams& p, const RunLimits& limits,
                   ReactionNetwork net = makeIgnitionSimple());
    explicit BubbleScenario(const ScenarioConfig& cfg);

    void init() override;
    std::string summary() const override;

    maestro::Maestro& driver() { return *m_maestro; }
    const maestro::BubbleParams& params() const { return m_params; }

private:
    maestro::BubbleParams m_params;
    ReactionNetwork m_net;
    std::unique_ptr<maestro::Maestro> m_maestro;
};

class AmrBlastScenario final : public DriverScenario {
public:
    AmrBlastScenario(const AmrBlastParams& p, const RunLimits& limits,
                     ReactionNetwork net = makeIgnitionSimple());
    explicit AmrBlastScenario(const ScenarioConfig& cfg);

    void init() override;
    std::string summary() const override;

    castro::Castro& driver() { return *m_amr; }
    const AmrBlastParams& params() const { return m_params; }

private:
    AmrBlastParams m_params;
    ReactionNetwork m_net;
    std::unique_ptr<castro::Castro> m_amr;
};

class WdCollisionScenario final : public DriverScenario {
public:
    // The by-name network in p.network is built at init() and owned by
    // the scenario's WdCollision.
    WdCollisionScenario(const castro::WdCollisionParams& p,
                        const RunLimits& limits);
    explicit WdCollisionScenario(const ScenarioConfig& cfg);

    void init() override;
    // Retires on the RunLimits or on ignition (maxT >= p.ignition_T).
    bool finished() const override;
    std::string summary() const override;

    castro::WdCollision& collision() { return m_wd; }
    const castro::WdCollisionParams& params() const { return m_params; }
    bool ignited() const;

private:
    castro::WdCollisionParams m_params;
    castro::WdCollision m_wd;
};

} // namespace exa::ensemble
