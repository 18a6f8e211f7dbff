#include "fsp/taillard.h"

#include <array>

#include "common/check.h"
#include "common/rng.h"

namespace fsbb::fsp {
namespace {

// Published time seeds, 10 per class, classes in the standard order
// (Taillard 1993, table reproduced on the benchmark web page the paper
// cites). Index base: ta001 is 20x5 instance 1.
struct ClassSeeds {
  int jobs;
  int machines;
  std::array<std::int32_t, 10> seeds;
};

constexpr std::array<ClassSeeds, 12> kClasses{{
    {20, 5,
     {873654221, 379008056, 1866992158, 216771124, 495070989, 402959317,
      1369363414, 2021925980, 573109518, 88325120}},
    {20, 10,
     {587595453, 1401007982, 873136276, 268827376, 1634173168, 691823909,
      73807235, 1273398721, 2065119309, 1672900551}},
    {20, 20,
     {479340445, 268827376, 1958948863, 918272953, 555010963, 2010851491,
      1519833303, 1748670931, 1923497586, 1829909967}},
    {50, 5,
     {1328042058, 200382020, 496319842, 1203030903, 1730708564, 450926852,
      1303135678, 1273398721, 587288402, 248421594}},
    {50, 10,
     {1958948863, 575633267, 655816003, 1977864101, 93805469, 1803345551,
      49612559, 1899802599, 2013025619, 578962478}},
    {50, 20,
     {1539989115, 691823909, 655816003, 1315102446, 1949668355, 1923497586,
      1805594913, 1861070898, 715643788, 464843328}},
    {100, 5,
     {896678084, 1179439976, 1122278347, 416756875, 267829958, 1835213917,
      1328833962, 1418570761, 161033112, 304212574}},
    {100, 10,
     {1539989115, 655816003, 960914243, 1915696806, 2013025619, 1168140026,
      1923497586, 167698528, 1528387973, 993794175}},
    {100, 20,
     {450926852, 1462772409, 1021685265, 83696007, 508154254, 1861070898,
      26482542, 444956424, 2115448041, 118254244}},
    {200, 10,
     {471503978, 1215892992, 135346136, 1602504050, 160037322, 551454346,
      519485142, 383947510, 1968171878, 540872513}},
    {200, 20,
     {2013025619, 475051709, 914834335, 810642687, 1019331795, 2056065863,
      1342855162, 1325809384, 1988803007, 765656702}},
    {500, 20,
     {1368624604, 450181436, 1927888393, 1759567256, 606425239, 19268348,
      1298201670, 2041736264, 379756761, 28837162}},
}};

std::array<TaillardSpec, 120> build_registry() {
  std::array<TaillardSpec, 120> out{};
  int id = 1;
  for (const auto& cls : kClasses) {
    for (const std::int32_t seed : cls.seeds) {
      out[id - 1] = TaillardSpec{id, cls.jobs, cls.machines, seed};
      ++id;
    }
  }
  return out;
}

const std::array<TaillardSpec, 120>& registry() {
  static const std::array<TaillardSpec, 120> reg = build_registry();
  return reg;
}

}  // namespace

std::span<const TaillardSpec> taillard_registry() { return registry(); }

Instance make_taillard_instance(int jobs, int machines, std::int32_t time_seed,
                                std::string name) {
  FSBB_CHECK(jobs >= 1 && machines >= 1);
  // Instance would refuse these too, but only after allocating the matrix.
  FSBB_CHECK_MSG(jobs <= Instance::kMaxDimension &&
                     machines <= Instance::kMaxDimension,
                 "instance " + std::to_string(jobs) + "x" +
                     std::to_string(machines) + " exceeds the limit of " +
                     std::to_string(Instance::kMaxDimension) +
                     " jobs or machines");
  Lcg31 rng(time_seed);
  Matrix<Time> pt(static_cast<std::size_t>(jobs),
                  static_cast<std::size_t>(machines));
  // Taillard generates the matrix machine-major: all jobs on machine 1
  // first, then machine 2, ... This ordering is part of the spec; changing
  // it would produce different (non-standard) instances.
  for (int machine = 0; machine < machines; ++machine) {
    for (int job = 0; job < jobs; ++job) {
      pt(job, machine) = rng.unif(1, 99);
    }
  }
  if (name.empty()) {
    name = std::to_string(jobs) + "x" + std::to_string(machines) + "_s" +
           std::to_string(time_seed);
  }
  return Instance(std::move(name), std::move(pt));
}

Instance taillard_instance(int id) {
  FSBB_CHECK_MSG(id >= 1 && id <= 120, "Taillard id must be in [1, 120]");
  const TaillardSpec& spec = registry()[static_cast<std::size_t>(id - 1)];
  std::string name = "ta" + std::string(id < 10 ? "00" : id < 100 ? "0" : "") +
                     std::to_string(id);
  return make_taillard_instance(spec.jobs, spec.machines, spec.time_seed,
                                std::move(name));
}

Instance taillard_class_representative(int jobs, int machines) {
  for (const TaillardSpec& spec : registry()) {
    if (spec.jobs == jobs && spec.machines == machines) {
      return taillard_instance(spec.id);
    }
  }
  FSBB_CHECK_MSG(false, "no published Taillard class " + std::to_string(jobs) +
                            "x" + std::to_string(machines));
  // Unreachable; FSBB_CHECK_MSG throws.
  throw CheckFailure("unreachable");
}

}  // namespace fsbb::fsp
