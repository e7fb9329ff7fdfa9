#include "uavdc/conformance/conformance.hpp"

#include <algorithm>
#include <cmath>
#include <exception>

#include "uavdc/model/energy_view.hpp"
#include "uavdc/core/planning_context.hpp"
#include "uavdc/core/registry.hpp"
#include "uavdc/sim/battery.hpp"
#include "uavdc/util/check.hpp"
#include "uavdc/util/rng.hpp"
#include "uavdc/util/thread_pool.hpp"
#include "uavdc/workload/generator.hpp"

namespace uavdc::conformance {

std::string to_string(ConformanceMismatch::Check check) {
    switch (check) {
        case ConformanceMismatch::Check::kEvaluatorVsSimulator:
            return "evaluator-vs-simulator";
        case ConformanceMismatch::Check::kEnergyModels:
            return "energy-models";
        case ConformanceMismatch::Check::kValidatorMissedAbort:
            return "validator-missed-abort";
        case ConformanceMismatch::Check::kReductionQualityDrift:
            return "reduction-quality-drift";
    }
    return "unknown";
}

namespace {

/// Mixed absolute/relative agreement: absolute `tol` for small values,
/// relative above 1 (energies run to 1e5 J, where 1e-6 absolute would sit
/// below double resolution of long sums).
bool close(double a, double b, double tol) {
    const double scale = std::max({1.0, std::abs(a), std::abs(b)});
    return std::abs(a - b) <= tol * scale;
}

void require(std::vector<ConformanceMismatch>& out,
             ConformanceMismatch::Check check, const std::string& field,
             double expected, double actual, double tol,
             const std::string& detail) {
    if (!close(expected, actual, tol)) {
        out.push_back({check, field, expected, actual, detail});
    }
}

/// Replay the tour leg by leg through a `sim::Battery` using `EnergyView`
/// power draws — the third, stateful reading of the plan's energy.
double battery_replay_j(const model::Instance& inst,
                        const model::FlightPlan& plan, double demand_j) {
    const model::EnergyView view(inst.uav);
    // Headroom above the demand so the replay never truncates; keeping the
    // capacity near the demand preserves double resolution in consumed_j.
    sim::Battery battery(2.0 * demand_j + 1.0);
    geom::Vec2 here = inst.depot;
    for (const auto& stop : plan.stops) {
        battery.drain(view.travel_power_w(),
                      // NOLINTNEXTLINE(uavdc-batched-distance): independent
                      // scalar replay is the cross-check oracle
                      view.travel_time(geom::distance(here, stop.pos)));
        battery.drain(view.hover_power_w(), stop.dwell_s);
        here = stop.pos;
    }
    if (!plan.stops.empty()) {
        battery.drain(view.travel_power_w(),
                      view.travel_time(geom::distance(here, inst.depot)));
    }
    return battery.consumed_j();
}

bool has_energy_error(const core::PlanValidation& val) {
    for (const auto& v : val.errors) {
        if (v.kind == core::PlanViolation::Kind::kEnergyExceeded) return true;
    }
    return false;
}

}  // namespace

ConformanceReport check_conformance(const model::Instance& inst,
                                    const model::FlightPlan& plan,
                                    double tol) {
    ConformanceReport rep;
    rep.evaluation = core::evaluate_plan(inst, plan, tol);
    sim::SimConfig cfg;
    cfg.record_trace = false;  // calm wind + constant radio by default
    rep.simulation = sim::Simulator(cfg).run(inst, plan);
    rep.validation = core::validate_plan(inst, plan);

    auto& out = rep.mismatches;
    const auto kEvalSim = ConformanceMismatch::Check::kEvaluatorVsSimulator;
    const core::Evaluation& ev = rep.evaluation;
    const sim::SimReport& sr = rep.simulation;

    // (a) closed-form evaluator vs discrete-event simulator.
    require(out, kEvalSim, "collected_mb", ev.collected_mb, sr.collected_mb,
            tol, "total collected volume");
    require(out, kEvalSim, "energy_j", ev.energy_spent_j, sr.energy_used_j,
            tol, "energy actually spent");
    require(out, kEvalSim, "tour_time_s", ev.executed_time_s, sr.duration_s,
            tol, "executed tour time");
    require(out, kEvalSim, "truncated",
            ev.truncated ? 1.0 : 0.0, sr.battery_depleted ? 1.0 : 0.0, 0.0,
            "evaluator truncation flag vs simulator battery depletion");
    require(out, kEvalSim, "devices_drained",
            static_cast<double>(ev.devices_drained),
            static_cast<double>(sr.devices_drained), 0.0,
            "fully-collected device count");
    for (std::size_t d = 0; d < ev.per_device_mb.size(); ++d) {
        if (!close(ev.per_device_mb[d], sr.per_device_mb[d], tol)) {
            require(out, kEvalSim,
                    "per_device_mb[" + std::to_string(d) + "]",
                    ev.per_device_mb[d], sr.per_device_mb[d], tol,
                    "per-device collected volume");
        }
    }

    // (b) the three energy readings of the same tour.
    const auto kEnergy = ConformanceMismatch::Check::kEnergyModels;
    const double plan_j = plan.energy(inst.depot, inst.uav).total_j();
    const model::EnergyView view(inst.uav);
    const double view_j = view.tour_cost(plan.travel_length(inst.depot),
                                         plan.hover_time());
    const double replay_j = battery_replay_j(inst, plan, plan_j);
    require(out, kEnergy, "energy_view_j", plan_j, view_j, tol,
            "FlightPlan::energy vs EnergyView::tour_cost");
    require(out, kEnergy, "battery_replay_j", plan_j, replay_j, tol,
            "FlightPlan::energy vs sim::Battery leg-by-leg replay");

    // (c) the validator must flag every plan the simulator aborts on.
    // Plans within `tol` of the budget are exempt: at that knife edge the
    // simulator's 1e-12-seconds rule and the validator's 1e-6-joules rule
    // may legitimately land on opposite sides.
    if (sr.battery_depleted && !has_energy_error(rep.validation) &&
        plan_j > view.budget_j() * (1.0 + tol) + tol) {
        out.push_back({ConformanceMismatch::Check::kValidatorMissedAbort,
                       "energy_exceeded", plan_j, view.budget_j(),
                       "simulator depleted the battery but validate_plan "
                       "reported no kEnergyExceeded error"});
    }
    return rep;
}

namespace {

/// Outcome of fuzzing one generated instance across every planner. Kept
/// per-instance so the pooled path can merge slots in instance order and
/// reproduce the serial summary bit for bit.
struct InstanceFuzzResult {
    int plans_checked{0};
    int mismatches{0};
    std::vector<ConformanceFuzzFailure> failures;  ///< capped at max_failures
};

InstanceFuzzResult fuzz_one_instance(const workload::GeneratorConfig& g,
                                     std::uint64_t instance_seed,
                                     const std::vector<std::string>& planners,
                                     const ConformanceFuzzConfig& cfg) {
    InstanceFuzzResult out;
    const auto inst = workload::generate(g, instance_seed);

    // A plan of the full instance is feasible by planner contract; the
    // stressed variant shrinks the battery under the same plan to force
    // the truncation / abort paths.
    auto stressed = inst;
    stressed.uav.energy_j *= 0.45;

    core::PlannerOptions opts;
    opts.delta_m = std::max(10.0, std::max(g.region_w, g.region_h) / 18.0);
    const auto ctx = core::PlanningContext::obtain(inst, opts.hover_config());

    for (const auto& name : planners) {
        const auto res = core::make_planner(name, opts)->plan(*ctx);
        auto record = [&](bool is_stressed, const char* planner_label,
                          const std::vector<ConformanceMismatch>& mm) {
            out.mismatches += static_cast<int>(mm.size());
            if (static_cast<int>(out.failures.size()) < cfg.max_failures) {
                out.failures.push_back({instance_seed, inst.name,
                                        name + std::string(planner_label),
                                        is_stressed, mm});
            }
        };
        auto consider = [&](const model::Instance& target, bool is_stressed,
                            const model::FlightPlan& plan,
                            const char* planner_label) {
            const auto report = check_conformance(target, plan, cfg.tol);
            ++out.plans_checked;
            if (report.ok()) return;
            record(is_stressed, planner_label, report.mismatches);
        };
        consider(inst, false, res.plan, "");
        if (cfg.stress_energy) consider(stressed, true, res.plan, "");

        // Pruned-vs-unpruned tier: the reduced candidate set must keep the
        // collected volume within reduction_rel_tol of the full set's (one
        // sided — collecting more is fine). alg2/alg3 only: the other
        // planners ignore the reduction config.
        const bool reducible = name == "alg2" || name == "alg3";
        if (cfg.check_reduction && reducible) {
            core::PlannerOptions red_opts = opts;
            red_opts.reduction = cfg.reduction;
            if (!red_opts.reduction.enabled()) {
                red_opts.reduction.dominance = true;
                red_opts.reduction.coarsen_factor = 2;
                red_opts.reduction.refine_band_m = 4.0 * opts.delta_m;
            }
            const auto red = core::make_planner(name, red_opts)->plan(*ctx);
            consider(inst, false, red.plan, "+reduced");

            const auto base_ev = core::evaluate_plan(inst, res.plan, cfg.tol);
            const auto red_ev = core::evaluate_plan(inst, red.plan, cfg.tol);
            ++out.plans_checked;
            const double floor =
                base_ev.collected_mb -
                cfg.reduction_rel_tol * std::max(1.0, base_ev.collected_mb);
            if (red_ev.collected_mb < floor) {
                std::vector<ConformanceMismatch> drift;
                drift.push_back(
                    {ConformanceMismatch::Check::kReductionQualityDrift,
                     "collected_mb", base_ev.collected_mb,
                     red_ev.collected_mb,
                     "reduced candidate set lost more than the allowed "
                     "fraction of the unpruned collected volume"});
                record(false, "+reduced", drift);
            }
        }
    }
    return out;
}

}  // namespace

ConformanceFuzzSummary fuzz_conformance(const ConformanceFuzzConfig& cfg) {
    // The tolerance is a relative fraction: non-positive would flag every
    // case, NaN would flag none (every comparison false), and > 1 would
    // accept any outcome — all three are configuration mistakes, rejected
    // up front instead of producing a silently meaningless run.
    const double tol = cfg.reduction_rel_tol;
    UAVDC_REQUIRE(std::isfinite(tol) && tol > 0.0 && tol <= 1.0)
        << "fuzz_conformance: reduction_rel_tol must be a finite fraction "
        << "in (0, 1], got " << tol;
    ConformanceFuzzSummary summary;
    if (cfg.instances <= 0) return summary;
    std::vector<std::string> planners =
        cfg.planners.empty() ? core::planner_names() : cfg.planners;

    util::Rng rng(cfg.seed);
    constexpr workload::Deployment kDeployments[] = {
        workload::Deployment::kUniform, workload::Deployment::kClustered,
        workload::Deployment::kGridJitter, workload::Deployment::kRing,
        workload::Deployment::kHalton, workload::Deployment::kPoissonDisk};
    constexpr workload::VolumeModel kVolumes[] = {
        workload::VolumeModel::kUniform, workload::VolumeModel::kExponential,
        workload::VolumeModel::kFixed, workload::VolumeModel::kBimodal};

    // Draw every instance's recipe up front from the single root stream —
    // the draw order (and thus the generated instances) is identical
    // whether the fuzz work below runs serially or on a pool.
    std::vector<workload::GeneratorConfig> configs;
    std::vector<std::uint64_t> seeds;
    configs.reserve(static_cast<std::size_t>(cfg.instances));
    seeds.reserve(static_cast<std::size_t>(cfg.instances));
    for (int i = 0; i < cfg.instances; ++i) {
        workload::GeneratorConfig g;
        g.num_devices = static_cast<int>(rng.uniform_int(4, 40));
        g.region_w = rng.uniform(150.0, 500.0);
        g.region_h = rng.uniform(150.0, 500.0);
        g.deployment = kDeployments[static_cast<std::size_t>(
            rng.uniform_int(0, 5))];
        g.volumes = kVolumes[static_cast<std::size_t>(rng.uniform_int(0, 3))];
        g.min_mb = rng.uniform(20.0, 150.0);
        g.max_mb = g.min_mb + rng.uniform(50.0, 800.0);
        // Budgets from cramped to comfortable, so some plans hug E.
        g.uav.energy_j = rng.uniform(2.0e4, 1.2e5);
        configs.push_back(g);
        seeds.push_back(rng.next_u64());
    }

    std::vector<InstanceFuzzResult> results(
        static_cast<std::size_t>(cfg.instances));
    if (cfg.pool != nullptr && cfg.instances > 1 &&
        !cfg.pool->on_worker_thread()) {
        std::vector<std::future<void>> futures;
        futures.reserve(results.size());
        for (int i = 0; i < cfg.instances; ++i) {
            const auto idx = static_cast<std::size_t>(i);
            futures.push_back(cfg.pool->submit([&, idx]() {
                results[idx] = fuzz_one_instance(configs[idx], seeds[idx],
                                                 planners, cfg);
            }));
        }
        // Drain every future before propagating a failure: bailing on the
        // first get() would destroy the remaining futures without waiting
        // (packaged_task futures do not block in their destructor) while
        // sibling tasks still read `configs`/`seeds`/`planners` and write
        // `results[idx]` on this unwound frame.
        std::exception_ptr first_error;
        for (auto& fut : futures) {
            try {
                fut.get();
            } catch (...) {
                if (!first_error) first_error = std::current_exception();
            }
        }
        if (first_error) std::rethrow_exception(first_error);
    } else {
        for (int i = 0; i < cfg.instances; ++i) {
            const auto idx = static_cast<std::size_t>(i);
            results[idx] =
                fuzz_one_instance(configs[idx], seeds[idx], planners, cfg);
        }
    }

    // Sequential merge in instance order: counters sum, and the first
    // `max_failures` failures are the same cases a serial run collects.
    for (auto& res : results) {
        ++summary.instances;
        summary.plans_checked += res.plans_checked;
        summary.mismatches += res.mismatches;
        for (auto& failure : res.failures) {
            if (static_cast<int>(summary.failures.size()) <
                cfg.max_failures) {
                summary.failures.push_back(std::move(failure));
            }
        }
    }
    return summary;
}

}  // namespace uavdc::conformance
