#include "uavdc/io/trace_export.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "test_util.hpp"

namespace uavdc::io {
namespace {

sim::SimReport demo_report() {
    const auto inst =
        testing::manual_instance({{{30.0, 40.0}, 300.0}});
    model::FlightPlan plan;
    plan.stops.push_back({{30.0, 40.0}, 2.0, -1});
    return sim::Simulator().run(inst, plan);
}

TEST(TraceExport, CsvHasHeaderAndRows) {
    const auto rep = demo_report();
    const std::string path = ::testing::TempDir() + "/uavdc_trace.csv";
    save_trace_csv(path, rep.trace);
    std::ifstream in(path);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "time_s,kind,stop,device,value");
    int rows = 0;
    while (std::getline(in, line)) ++rows;
    EXPECT_EQ(rows, static_cast<int>(rep.trace.size()));
    EXPECT_GT(rows, 3);
    std::remove(path.c_str());
}

TEST(TraceExport, ReportToJson) {
    const auto rep = demo_report();
    const Json doc = to_json(rep);
    EXPECT_DOUBLE_EQ(doc.at("collected_mb").as_number(), rep.collected_mb);
    EXPECT_TRUE(doc.at("completed").as_bool());
    EXPECT_EQ(doc.at("trace").as_array().size(), rep.trace.size());
    EXPECT_EQ(doc.at("trace").as_array()[0].at("kind").as_string(),
              "depart");
    // Without trace.
    const Json lean = to_json(rep, false);
    EXPECT_FALSE(lean.contains("trace"));
}

TEST(TraceExport, ReportFileRoundTrips) {
    const auto rep = demo_report();
    const std::string path = ::testing::TempDir() + "/uavdc_report.json";
    save_report(path, rep);
    const Json loaded = load_json_file(path);
    EXPECT_DOUBLE_EQ(loaded.at("energy_used_j").as_number(),
                     rep.energy_used_j);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace uavdc::io
