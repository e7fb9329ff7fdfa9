#include <gtest/gtest.h>

#include <set>

#include "uavdc/workload/generator.hpp"
#include "uavdc/workload/presets.hpp"

namespace uavdc::workload {
namespace {

TEST(Generator, DeterministicForSameSeed) {
    const GeneratorConfig cfg = paper_scaled(0.3);
    const auto a = generate(cfg, 9);
    const auto b = generate(cfg, 9);
    ASSERT_EQ(a.devices.size(), b.devices.size());
    for (std::size_t i = 0; i < a.devices.size(); ++i) {
        EXPECT_EQ(a.devices[i].pos, b.devices[i].pos);
        EXPECT_DOUBLE_EQ(a.devices[i].data_mb, b.devices[i].data_mb);
    }
}

TEST(Generator, DifferentSeedsDiffer) {
    const GeneratorConfig cfg = paper_scaled(0.3);
    const auto a = generate(cfg, 1);
    const auto b = generate(cfg, 2);
    bool any_diff = false;
    for (std::size_t i = 0; i < a.devices.size(); ++i) {
        if (a.devices[i].pos != b.devices[i].pos) any_diff = true;
    }
    EXPECT_TRUE(any_diff);
}

TEST(Generator, DevicesInsideRegionWithDenseIds) {
    for (auto dep : {Deployment::kUniform, Deployment::kClustered,
                     Deployment::kGridJitter, Deployment::kRing}) {
        GeneratorConfig cfg = paper_scaled(0.4);
        cfg.deployment = dep;
        const auto inst = generate(cfg, 5);
        EXPECT_EQ(inst.devices.size(),
                  static_cast<std::size_t>(cfg.num_devices));
        for (std::size_t i = 0; i < inst.devices.size(); ++i) {
            EXPECT_EQ(inst.devices[i].id, static_cast<int>(i));
            EXPECT_TRUE(inst.region.contains(inst.devices[i].pos))
                << to_string(dep);
        }
    }
}

TEST(Generator, VolumeRangesRespected) {
    for (auto vm : {VolumeModel::kUniform, VolumeModel::kExponential,
                    VolumeModel::kFixed, VolumeModel::kBimodal}) {
        GeneratorConfig cfg = paper_scaled(0.4);
        cfg.volumes = vm;
        const auto inst = generate(cfg, 6);
        for (const auto& d : inst.devices) {
            EXPECT_GE(d.data_mb, cfg.min_mb - 1e-9) << to_string(vm);
            EXPECT_LE(d.data_mb, cfg.max_mb + 1e-9) << to_string(vm);
        }
    }
}

TEST(Generator, FixedVolumesAreConstant) {
    GeneratorConfig cfg = paper_scaled(0.3);
    cfg.volumes = VolumeModel::kFixed;
    const auto inst = generate(cfg, 7);
    for (const auto& d : inst.devices) {
        EXPECT_DOUBLE_EQ(d.data_mb, (cfg.min_mb + cfg.max_mb) / 2.0);
    }
}

TEST(Generator, UniformVolumesSpreadOut) {
    GeneratorConfig cfg = paper_default();
    const auto inst = generate(cfg, 8);
    double lo = 1e18, hi = 0.0;
    for (const auto& d : inst.devices) {
        lo = std::min(lo, d.data_mb);
        hi = std::max(hi, d.data_mb);
    }
    EXPECT_LT(lo, 200.0);   // some light devices
    EXPECT_GT(hi, 900.0);   // some heavy devices
}

TEST(Generator, ClusteredIsSpatiallyConcentrated) {
    GeneratorConfig uni = paper_default();
    GeneratorConfig clu = paper_default();
    clu.deployment = Deployment::kClustered;
    clu.clusters = 4;
    clu.cluster_stddev = 30.0;
    const auto a = generate(uni, 9);
    const auto b = generate(clu, 9);
    // Mean nearest-neighbour distance is much smaller under clustering.
    auto mean_nn = [](const model::Instance& inst) {
        double s = 0.0;
        for (const auto& d : inst.devices) {
            double best = 1e18;
            for (const auto& e : inst.devices) {
                if (d.id == e.id) continue;
                best = std::min(best, geom::distance(d.pos, e.pos));
            }
            s += best;
        }
        return s / static_cast<double>(inst.devices.size());
    };
    EXPECT_LT(mean_nn(b), 0.8 * mean_nn(a));
}

TEST(Generator, DepotClampedIntoRegion) {
    GeneratorConfig cfg = paper_scaled(0.2);
    cfg.depot = {-50.0, 1e6};
    const auto inst = generate(cfg, 10);
    EXPECT_TRUE(inst.region.contains(inst.depot));
}

TEST(Generator, ValidationErrors) {
    GeneratorConfig cfg = paper_default();
    cfg.num_devices = -1;
    EXPECT_THROW(generate(cfg, 1), std::invalid_argument);
    cfg = paper_default();
    cfg.min_mb = 500.0;
    cfg.max_mb = 100.0;
    EXPECT_THROW(generate(cfg, 1), std::invalid_argument);
    cfg = paper_default();
    cfg.region_w = 0.0;
    EXPECT_THROW(generate(cfg, 1), std::invalid_argument);
}

TEST(Generator, ZeroDevicesOk) {
    GeneratorConfig cfg = paper_scaled(0.2);
    cfg.num_devices = 0;
    const auto inst = generate(cfg, 1);
    EXPECT_TRUE(inst.devices.empty());
}

TEST(Generator, NameEncodesSetup) {
    const auto inst = generate(paper_scaled(0.2), 12);
    EXPECT_NE(inst.name.find("uniform"), std::string::npos);
    EXPECT_NE(inst.name.find("s12"), std::string::npos);
}


TEST(Generator, PoissonDiskRespectsMinSpacing) {
    GeneratorConfig cfg = paper_scaled(0.3);
    cfg.deployment = Deployment::kPoissonDisk;
    cfg.num_devices = 60;
    cfg.poisson_min_dist = 25.0;
    const auto inst = generate(cfg, 4);
    ASSERT_EQ(inst.devices.size(), 60u);
    for (std::size_t i = 0; i < inst.devices.size(); ++i) {
        for (std::size_t j = i + 1; j < inst.devices.size(); ++j) {
            EXPECT_GE(geom::distance(inst.devices[i].pos,
                                     inst.devices[j].pos),
                      25.0 - 1e-9);
        }
    }
    EXPECT_EQ(to_string(cfg.deployment), "poisson-disk");
}

TEST(Generator, PoissonDiskAutoRadiusCompletes) {
    GeneratorConfig cfg = paper_scaled(0.3);
    cfg.deployment = Deployment::kPoissonDisk;
    cfg.num_devices = 200;  // dense: auto radius must shrink to fit
    const auto inst = generate(cfg, 5);
    EXPECT_EQ(inst.devices.size(), 200u);
    for (const auto& d : inst.devices) {
        EXPECT_TRUE(inst.region.contains(d.pos));
    }
}

TEST(Presets, PaperDefaultMatchesSectionVII) {
    const GeneratorConfig cfg = paper_default();
    EXPECT_EQ(cfg.num_devices, 500);
    EXPECT_DOUBLE_EQ(cfg.region_w, 1000.0);
    EXPECT_DOUBLE_EQ(cfg.region_h, 1000.0);
    EXPECT_DOUBLE_EQ(cfg.min_mb, 100.0);
    EXPECT_DOUBLE_EQ(cfg.max_mb, 1000.0);
    EXPECT_DOUBLE_EQ(cfg.uav.energy_j, 3.0e5);
    EXPECT_DOUBLE_EQ(cfg.uav.coverage_radius_m, 50.0);
    EXPECT_DOUBLE_EQ(cfg.uav.bandwidth_mbps, 150.0);
    EXPECT_DOUBLE_EQ(cfg.uav.hover_power_w, 150.0);
    EXPECT_DOUBLE_EQ(cfg.uav.travel_rate, 100.0);
    EXPECT_EQ(cfg.uav.travel_energy_model,
              model::TravelEnergyModel::kPerMeter);
    EXPECT_DOUBLE_EQ(cfg.uav.speed_mps, 10.0);
}

TEST(Presets, ScaledKeepsDensity) {
    const GeneratorConfig half = paper_scaled(0.5);
    EXPECT_DOUBLE_EQ(half.region_w, 500.0);
    EXPECT_EQ(half.num_devices, 125);  // 500 * 0.25
    const double full_density =
        500.0 / (1000.0 * 1000.0);
    const double scaled_density =
        static_cast<double>(half.num_devices) /
        (half.region_w * half.region_h);
    EXPECT_NEAR(scaled_density, full_density, 1e-6);
}

TEST(Presets, ScenarioPresetsGenerate) {
    for (const auto& cfg :
         {smart_city(), disaster_response(), farm_monitoring()}) {
        const auto inst = generate(cfg, 3);
        EXPECT_GT(inst.devices.size(), 0u);
        inst.validate();
    }
}

TEST(Presets, ScenarioDeployments) {
    EXPECT_EQ(smart_city().deployment, Deployment::kClustered);
    EXPECT_EQ(disaster_response().deployment, Deployment::kRing);
    EXPECT_EQ(farm_monitoring().deployment, Deployment::kGridJitter);
}

TEST(HaltonDeployment, EvenAndInRegion) {
    GeneratorConfig cfg = paper_scaled(0.3);
    cfg.deployment = Deployment::kHalton;
    const auto inst = generate(cfg, 3);
    EXPECT_EQ(to_string(cfg.deployment), "halton");
    for (const auto& d : inst.devices) {
        EXPECT_TRUE(inst.region.contains(d.pos));
    }
    // Low discrepancy: split the region into 4 quadrants; each holds
    // roughly a quarter of the devices (much tighter than iid uniform).
    int quadrants[4] = {0, 0, 0, 0};
    for (const auto& d : inst.devices) {
        const int qx = d.pos.x < cfg.region_w / 2 ? 0 : 1;
        const int qy = d.pos.y < cfg.region_h / 2 ? 0 : 1;
        ++quadrants[qy * 2 + qx];
    }
    const double expect = static_cast<double>(inst.devices.size()) / 4.0;
    for (int q : quadrants) {
        EXPECT_NEAR(q, expect, 0.15 * expect + 2.0);
    }
}

TEST(HaltonDeployment, DeterministicPositionsIgnoreSeedForLayout) {
    GeneratorConfig cfg = paper_scaled(0.2);
    cfg.deployment = Deployment::kHalton;
    const auto a = generate(cfg, 1);
    const auto b = generate(cfg, 2);
    // Positions are the Halton sequence (seed-independent); volumes differ.
    for (std::size_t i = 0; i < a.devices.size(); ++i) {
        EXPECT_EQ(a.devices[i].pos, b.devices[i].pos);
    }
}

}  // namespace
}  // namespace uavdc::workload
