// Allocation-policy study (paper Fig. 1): quantify how SLURM-style
// heterogeneous jobs reduce quantum-device idle time compared to MPMD
// co-allocation, using the deterministic discrete-event model.
//
//   ./workflow_hetjobs [--jobs 16] [--devices 1] [--cpus 8] [--seed 5]

#include <cstdio>
#include <vector>

#include "sched/des.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  const qq::util::Args args(argc, argv);
  const int job_count = args.get_int("jobs", 16);
  const int devices = args.get_int("devices", 1);
  const int cpus = args.get_int("cpus", 8);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 5));
  args.reject_unknown();
  qq::util::Rng rng(seed);

  // Hybrid jobs: classical prep (graph partitioning, circuit synthesis),
  // quantum execution, classical post-processing (merge bookkeeping).
  std::vector<qq::sched::JobPhases> jobs;
  for (int i = 0; i < job_count; ++i) {
    qq::sched::JobPhases phases;
    phases.classical_prep = qq::util::uniform(rng, 2.0, 6.0);
    phases.quantum = qq::util::uniform(rng, 1.0, 3.0);
    phases.classical_post = qq::util::uniform(rng, 0.5, 1.5);
    jobs.push_back(phases);
  }

  std::printf("%d hybrid jobs | %d quantum device(s), %d classical node(s)\n\n",
              job_count, devices, cpus);
  for (const auto policy : {qq::sched::AllocationPolicy::kMpmd,
                            qq::sched::AllocationPolicy::kHeterogeneous}) {
    qq::sched::DesOptions opts;
    opts.quantum_devices = devices;
    opts.classical_nodes = cpus;
    opts.policy = policy;
    const auto r = qq::sched::simulate_workload(jobs, opts);
    std::printf("%s:\n", policy == qq::sched::AllocationPolicy::kMpmd
                             ? "MPMD co-allocation"
                             : "heterogeneous jobs");
    std::printf("  makespan                 : %8.2f s\n", r.makespan);
    std::printf("  device compute (busy)    : %8.2f s\n", r.quantum_busy);
    std::printf("  device allocated         : %8.2f s\n", r.quantum_allocated);
    std::printf("  idle share of allocation : %8.1f %%\n",
                100.0 * r.quantum_alloc_idle_fraction);
    std::printf("  device utilization       : %8.1f %%\n\n",
                100.0 * r.quantum_utilization);
  }
  std::printf("Fig. 1's point: under heterogeneous jobs the device is only\n"
              "held for the quantum phase, so the next job's quantum work\n"
              "starts before the previous job finishes post-processing.\n");
  return 0;
}
