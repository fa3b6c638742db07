#include "replay.hpp"

#include "assemble/assemble.hpp"
#include "cif/cif.hpp"
#include "design_sources.hpp"
#include "lang/lang.hpp"
#include "logic/logic.hpp"
#include "pla/pla.hpp"
#include "rtl/rtl.hpp"
#include "sim/sim.hpp"
#include "synth/synth.hpp"
#include "tech/tech.hpp"

namespace perfbench {

namespace core = silc::core;

std::vector<Design> crew_designs() {
  std::vector<Design> out;
  for (int w = 3; w <= 6; ++w) {
    out.push_back({"counter" + std::to_string(w), core::Flow::Behavioral,
                   silc_fixtures::counter_source(w)});
  }
  out.push_back({"gray2", core::Flow::Behavioral, silc_fixtures::kGray2Source});
  out.push_back({"traffic", core::Flow::Behavioral,
                 silc_fixtures::kTrafficSource});
  out.push_back({"inv_chain", core::Flow::Structural,
                 silc_fixtures::kInvChainSource});
  return out;
}

Artifacts reference_compile(const Design& d, const core::CompileOptions& o) {
  silc::layout::Library lib;
  core::DesignDB db(lib, d.flow, d.source, o);
  const core::Pipeline p = d.flow == core::Flow::Behavioral
                               ? core::Pipeline::behavioral()
                               : core::Pipeline::structural();
  p.run(db);
  const core::CompileResult r = core::finish(db);
  Artifacts a;
  a.cif = r.cif;
  a.violations = r.drc.violations;
  if (db.has_netlist()) a.netlist = db.netlist();
  a.verified = d.flow == core::Flow::Behavioral ? r.verified : !r.has_errors();
  a.pla_terms = r.stats.pla.num_terms;
  return a;
}

namespace {

Artifacts replay_behavioral(const Design& d,
                            const core::CompileOptions& o,
                            silc::layout::Library& lib,
                            silc::synth::TabulatedFsm& fsm_out) {
  namespace sim = silc::sim;
  Artifacts a;
  const silc::rtl::Design design = span(
      "rtl.parse", kLayerSpan, [&] { return silc::rtl::parse(d.source); });
  fsm_out = span("synth.tabulate", kLayerSpan,
                 [&] { return silc::synth::tabulate(design); });
  const silc::assemble::FsmChipResult chip = span("assemble", kLayerSpan, [&] {
    return silc::assemble::assemble_fsm_chip(lib, fsm_out, {.name = o.name});
  });
  a.pla_terms = chip.stats.pla.num_terms;
  a.cif = span("cif.write", kLayerSpan,
               [&] { return silc::cif::write(*chip.chip); });
  a.violations = span("drc.check", kLayerSpan, [&] {
                      return silc::drc::check_hier(*chip.chip,
                                                   silc::tech::nmos(),
                                                   o.drc_cache);
                    }).violations;
  a.netlist = span("extract.extract", kLayerSpan, [&] {
    return silc::extract::extract_hier(*chip.chip, silc::tech::nmos(),
                                       o.extract_cache);
  });
  // The three checks in pipeline order, with the pipeline's parameters; a
  // failed check stops the flow there, as the pipeline does.
  const sim::CrosscheckReport gate = span("sim.gate_check", kLayerSpan, [&] {
    sim::CrosscheckOptions co;
    co.cycles = o.gate_verify_cycles;
    co.lanes = o.gate_verify_lanes;
    co.switch_cycles = 0;
    co.sim.threads = o.sim_threads;
    return sim::crosscheck(design, co);
  });
  if (!gate.ok) return a;
  const sim::PlaCheckReport pla = span("sim.pla_check", kLayerSpan, [&] {
    sim::SimConfig sc;
    sc.threads = o.sim_threads;
    return sim::check_pla(design, fsm_out, chip.personality,
                          o.pla_verify_cycles, 0, 2u, sc, o.pla_check_mode);
  });
  if (!pla.ok) return a;
  a.verified = span("swsim.artwork", kLayerSpan, [&] {
    std::string detail;
    return core::verify_chip_against_rtl(a.netlist, design, o.verify_cycles,
                                         1u, detail);
  });
  return a;
}

Artifacts replay_structural(const Design& d,
                            const core::CompileOptions& o,
                            silc::layout::Library& lib) {
  Artifacts a;
  const silc::lang::RunResult program = span("lang.run", kLayerSpan, [&] {
    silc::lang::Interpreter interp(lib);
    return interp.run(d.source);
  });
  const silc::layout::Cell* chip = program.cell();
  if (chip == nullptr) chip = lib.find(o.name);
  if (chip == nullptr) return a;
  a.cif = program.cif.empty()
              ? span("cif.write", kLayerSpan,
                     [&] { return silc::cif::write(*chip); })
              : program.cif;
  a.violations = span("drc.check", kLayerSpan, [&] {
                      return silc::drc::check_hier(*chip, silc::tech::nmos(),
                                                   o.drc_cache);
                    }).violations;
  a.netlist = span("extract.extract", kLayerSpan, [&] {
    return silc::extract::extract_hier(*chip, silc::tech::nmos(),
                                       o.extract_cache);
  });
  a.verified = true;
  return a;
}

}  // namespace

Artifacts replay_compile(const Design& d,
                         const core::CompileOptions& o, Counters& counters) {
  silc::layout::Library lib;
  silc::synth::TabulatedFsm fsm;
  Artifacts a;
  {
    const CounterDelta cd;
    a = span(d.name, kOpSpan, [&] {
      return d.flow == core::Flow::Behavioral
                 ? replay_behavioral(d, o, lib, fsm)
                 : replay_structural(d, o, lib);
    });
    counters = cd.take();
  }
  if (d.flow != core::Flow::Behavioral) return a;

  // Probe, outside the op: the minimization pla::generate performs inside
  // assemble_fsm_chip, then the PLA layout from that personality. The
  // assemble span minus both is placement and routing.
  const silc::logic::PlaTerms personality =
      span("logic.minimize", kProbeSpan, [&] {
        return silc::logic::minimize_multi(
            silc::pla::complement(fsm.function));
      });
  silc::layout::Library probe_lib;
  (void)span("pla.layout", kProbeSpan, [&] {
    return silc::pla::generate_from_personality(probe_lib, personality,
                                                {.name = o.name + "_pla"});
  });
  return a;
}

bool same_artifacts(const Artifacts& a, const Artifacts& b) {
  return a.cif == b.cif && a.violations == b.violations &&
         a.netlist == b.netlist && a.verified == b.verified;
}

}  // namespace perfbench
