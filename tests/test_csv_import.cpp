#include "uavdc/workload/csv_import.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "uavdc/workload/presets.hpp"

namespace uavdc::workload {
namespace {

class CsvImportTest : public ::testing::Test {
  protected:
    // One file per test: ctest runs the tests of this fixture in parallel.
    std::string path_ =
        ::testing::TempDir() + "/uavdc_devices_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".csv";
    void write(const std::string& content) {
        std::ofstream out(path_);
        out << content;
    }
    void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(CsvImportTest, LoadsPlainRows) {
    write("10.0,20.0,300\n30.5,40.5,150.5\n");
    const auto inst = load_devices_csv(path_, paper_uav());
    ASSERT_EQ(inst.devices.size(), 2u);
    EXPECT_EQ(inst.devices[0].pos, geom::Vec2(10.0, 20.0));
    EXPECT_DOUBLE_EQ(inst.devices[1].data_mb, 150.5);
    EXPECT_EQ(inst.devices[0].id, 0);
    EXPECT_EQ(inst.devices[1].id, 1);
}

TEST_F(CsvImportTest, SkipsHeaderCommentsBlanks) {
    write("x,y,data_mb\n# survey batch 7\n\n10,10,100\n\n20,20,200\n");
    const auto inst = load_devices_csv(path_, paper_uav());
    EXPECT_EQ(inst.devices.size(), 2u);
}

TEST_F(CsvImportTest, RegionIsInflatedBoundingBox) {
    write("100,100,50\n300,200,50\n");
    const auto inst = load_devices_csv(path_, paper_uav(), 25.0);
    EXPECT_DOUBLE_EQ(inst.region.lo.x, 75.0);
    EXPECT_DOUBLE_EQ(inst.region.lo.y, 75.0);
    EXPECT_DOUBLE_EQ(inst.region.hi.x, 325.0);
    EXPECT_DOUBLE_EQ(inst.region.hi.y, 225.0);
    EXPECT_EQ(inst.depot, inst.region.lo);
    inst.validate();
}

TEST_F(CsvImportTest, BadRowReportsLineNumber) {
    write("10,10,100\nnot,a,row\n");
    try {
        (void)load_devices_csv(path_, paper_uav());
        FAIL() << "expected throw";
    } catch (const std::runtime_error& ex) {
        EXPECT_NE(std::string(ex.what()).find("line 2"), std::string::npos);
    }
}

TEST_F(CsvImportTest, NegativeVolumeRejected) {
    write("10,10,-5\n");
    EXPECT_THROW((void)load_devices_csv(path_, paper_uav()),
                 std::runtime_error);
}

TEST_F(CsvImportTest, EmptyFileRejected) {
    write("# nothing here\n");
    EXPECT_THROW((void)load_devices_csv(path_, paper_uav()),
                 std::runtime_error);
}

TEST_F(CsvImportTest, MissingFileRejected) {
    EXPECT_THROW((void)load_devices_csv("/no/such/file.csv", paper_uav()),
                 std::runtime_error);
}

TEST_F(CsvImportTest, RoundTripThroughSave) {
    write("1.5,2.5,10\n3.5,4.5,20\n");
    const auto inst = load_devices_csv(path_, paper_uav());
    const std::string out = ::testing::TempDir() + "/uavdc_rt.csv";
    save_devices_csv(out, inst);
    const auto back = load_devices_csv(out, paper_uav());
    ASSERT_EQ(back.devices.size(), inst.devices.size());
    for (std::size_t i = 0; i < inst.devices.size(); ++i) {
        EXPECT_EQ(back.devices[i].pos, inst.devices[i].pos);
        EXPECT_DOUBLE_EQ(back.devices[i].data_mb, inst.devices[i].data_mb);
    }
    std::remove(out.c_str());
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
