// E9 — memory-reclamation overhead (Section 5: "We have not explicitly
// incorporated a memory management technique, but a possible approach is
// to use Valois's reference counting method").
//
// This repository's substitution: epoch-based reclamation as the default
// (safe for backlink traversal) and hazard pointers for the Michael
// baseline. This bench quantifies what each policy costs over the paper's
// leak-everything setting, on a 50/50 insert/delete churn that maximizes
// retirement traffic. Each row is compiled on its own (reclamation/), and
// a 1-thread pass writes every row's steps/op to BENCH_reclamation.json.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "lf/harness/bench_env.h"
#include "lf/harness/json_writer.h"
#include "lf/harness/table.h"
#include "reclamation/rows.h"

namespace {

// The 1-thread steps/op of every row, for CI's trend gate
// (tools/bench_trend.py): they repeat exactly from run to run.
void emit_json(const std::vector<e9::Row>& rows) {
  lf::harness::JsonWriter j;
  j.begin_object();
  j.field("experiment", "E9 reclamation");
  j.key("configs").begin_array();
  for (const auto& row : rows) {
    j.begin_object();
    j.field("configuration", row.name);
    j.field("threads", 1);
    j.field("essential_steps_per_op", row.steps_per_op_1t);
    j.end_object();
  }
  j.end_array();
  j.end_object();
  std::ofstream f("BENCH_reclamation.json");
  f << j.str() << "\n";
  std::cout << "wrote BENCH_reclamation.json\n";
}

}  // namespace

int main() {
  lf::harness::print_environment(
      "E9 (Section 5)",
      "reclamation policy cost: leak-everything (the paper's setting) vs "
      "epoch-based vs hazard pointers");

  const std::vector<e9::Row> rows = {
      e9::frlist_leaky(), e9::frlist_epoch(),  e9::frskiplist_epoch(),
      e9::frlist_rc(),    e9::frskiplist_rc(), e9::michael_leaky(),
      e9::michael_epoch(), e9::michael_hp()};

  lf::harness::print_section(
      "50i/50d churn, 4 threads, 512-key space, 120k ops");
  lf::harness::Table table({"configuration", "Mops/s", "steps/op",
                            "retired/op", "retired", "freed (in run)"});
  for (const auto& row : rows) {
    const auto& res = row.churn;
    table.add_row(
        {row.name, lf::harness::Table::num(res.mops_per_sec(), 2),
         lf::harness::Table::num(res.steps_per_op(), 1),
         lf::harness::Table::num(
             static_cast<double>(res.steps.node_retired) /
                 static_cast<double>(res.total_ops),
             3),
         std::to_string(res.steps.node_retired),
         std::to_string(res.steps.node_freed)});
  }
  table.print();

  std::cout << "Expected shape: epoch guards cost a few percent over leaky\n"
               "(two atomic ops per operation); hazard pointers cost more\n"
               "(a protect+validate fence per traversal hop). freed < \n"
               "retired is normal — the remainder drains at teardown.\n\n";

  lf::harness::print_section("the same churn, 1 thread: steps/op");
  lf::harness::Table steps({"configuration", "steps/op"});
  for (const auto& row : rows)
    steps.add_row({row.name, lf::harness::Table::num(row.steps_per_op_1t, 3)});
  steps.print();
  emit_json(rows);
  return 0;
}
