// Adaptive mesh refinement in action (the machinery behind the paper's
// Section V science run): a blast wave on a coarse base grid with a
// dynamically regridded 2x refined level tracking the hot region, written
// out as an AMReX-style plotfile.
//
// Run:  ./amr_blast [key=value ...]    e.g.  ./amr_blast max-steps=50

#include "ensemble/scenarios.hpp"
#include "mesh/plotfile.hpp"

#include <cstdio>

using namespace exa;
using namespace exa::castro;
using namespace exa::ensemble;

int main(int argc, char** argv) {
    ScenarioConfig cfg = ScenarioConfig::fromArgs(argc, argv);
    if (!cfg.has("max-steps")) cfg.set("max-steps", "30");

    auto scenario = makeScenarioByName("amr-blast", cfg);
    scenario->init();
    auto& blast = dynamic_cast<AmrBlastScenario&>(*scenario);
    Castro& amr = blast.driver();

    std::printf("AMR blast: base %d^3 + %d refined level(s); level-1 covers "
                "%.1f%% of the domain\n",
                blast.params().ncell, amr.finestLevel(),
                100.0 * amr.coveredFraction(1));

    const Real m0 = amr.totalMass();
    while (!scenario->finished()) {
        scenario->advanceOnce();
        if (scenario->stepCount() % 10 == 0) {
            std::printf("  step %3d t = %.4f  level-1 zones = %lld (%.1f%% of "
                        "domain)  mass drift = %.2e\n",
                        scenario->stepCount(), scenario->time(),
                        static_cast<long long>(amr.numZones(1)),
                        100.0 * amr.coveredFraction(1),
                        std::abs(amr.totalMass() / m0 - 1.0));
        }
    }

    std::vector<std::string> names = {"rho", "mx", "my", "mz", "rhoE", "T",
                                      "rho_c12", "rho_mg24"};
    const auto bytes = writePlotfile(
        "amr_blast_plt", {&amr.state(0), &amr.state(1)},
        {amr.geom(0), amr.geom(1)}, names, scenario->time(),
        scenario->stepCount());
    std::printf("wrote amr_blast_plt/ (%lld bytes across 2 levels)\n",
                static_cast<long long>(bytes));
    return 0;
}
