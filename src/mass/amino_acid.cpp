#include "mass/amino_acid.hpp"

#include "util/error.hpp"

namespace msp {
namespace {

// Index 0..25 by (letter - 'A'); non-residues hold a negative sentinel.
constexpr double kInvalid = -1.0;

// Monoisotopic residue masses (Da), standard IUPAC values.
constexpr std::array<double, 26> kMono = {
    /*A*/ 71.03711381,  /*B*/ kInvalid,     /*C*/ 103.00918448,
    /*D*/ 115.02694302, /*E*/ 129.04259309, /*F*/ 147.06841391,
    /*G*/ 57.02146374,  /*H*/ 137.05891186, /*I*/ 113.08406398,
    /*J*/ kInvalid,     /*K*/ 128.09496302, /*L*/ 113.08406398,
    /*M*/ 131.04048491, /*N*/ 114.04292744, /*O*/ kInvalid,
    /*P*/ 97.05276385,  /*Q*/ 128.05857751, /*R*/ 156.10111102,
    /*S*/ 87.03202841,  /*T*/ 101.04767847, /*U*/ kInvalid,
    /*V*/ 99.06841391,  /*W*/ 186.07931295, /*X*/ kInvalid,
    /*Y*/ 163.06332853, /*Z*/ kInvalid};

// kMono indexed by byte value: every byte outside 'A'..'Z' is kInvalid too.
constexpr std::array<double, 256> kMonoByByte = [] {
  std::array<double, 256> table{};
  table.fill(kInvalid);
  for (std::size_t c = 'A'; c <= 'Z'; ++c) table[c] = kMono[c - 'A'];
  return table;
}();

// Average residue masses (Da).
constexpr std::array<double, 26> kAvg = {
    /*A*/ 71.0788,  /*B*/ kInvalid, /*C*/ 103.1388, /*D*/ 115.0886,
    /*E*/ 129.1155, /*F*/ 147.1766, /*G*/ 57.0519,  /*H*/ 137.1411,
    /*I*/ 113.1594, /*J*/ kInvalid, /*K*/ 128.1741, /*L*/ 113.1594,
    /*M*/ 131.1926, /*N*/ 114.1038, /*O*/ kInvalid, /*P*/ 97.1167,
    /*Q*/ 128.1307, /*R*/ 156.1875, /*S*/ 87.0782,  /*T*/ 101.1051,
    /*U*/ kInvalid, /*V*/ 99.1326,  /*W*/ 186.2132, /*X*/ kInvalid,
    /*Y*/ 163.1760, /*Z*/ kInvalid};

// UniProtKB/Swiss-Prot residue frequencies (release-era averages, sum ≈ 1).
constexpr std::array<double, 26> kFreq = {
    /*A*/ 0.0825, /*B*/ 0.0,   /*C*/ 0.0137, /*D*/ 0.0545, /*E*/ 0.0675,
    /*F*/ 0.0386, /*G*/ 0.0707, /*H*/ 0.0227, /*I*/ 0.0596, /*J*/ 0.0,
    /*K*/ 0.0584, /*L*/ 0.0966, /*M*/ 0.0242, /*N*/ 0.0406, /*O*/ 0.0,
    /*P*/ 0.0470, /*Q*/ 0.0393, /*R*/ 0.0553, /*S*/ 0.0656, /*T*/ 0.0534,
    /*U*/ 0.0,   /*V*/ 0.0687, /*W*/ 0.0108, /*X*/ 0.0,    /*Y*/ 0.0292,
    /*Z*/ 0.0};

// Dense index (A=0 … Y=19) for the 20 standard residues, -1 otherwise.
constexpr std::array<int, 26> kDense = {
    0,  -1, 1,  2,  3,  4,  5,  6,  7,  -1, 8,  9,  10,
    11, -1, 12, 13, 14, 15, 16, -1, 17, 18, -1, 19, -1};

int letter_slot(char c) {
  if (c < 'A' || c > 'Z') return -1;
  return c - 'A';
}

}  // namespace

bool is_residue(char c) noexcept {
  const int slot = letter_slot(c);
  return slot >= 0 && kMono[static_cast<std::size_t>(slot)] > 0.0;
}

double residue_mass(char c) {
  MSP_CHECK_MSG(is_residue(c), "not an amino-acid residue: '" << c << "'");
  return kMono[static_cast<std::size_t>(letter_slot(c))];
}

void residue_prefix_sums(std::string_view residues,
                         std::vector<double>& sums) {
  sums.resize(residues.size() + 1);
  double* out = sums.data();
  double running = 0.0;
  out[0] = running;
  bool valid = true;
  for (std::size_t i = 0; i < residues.size(); ++i) {
    const double mass =
        kMonoByByte[static_cast<unsigned char>(residues[i])];
    valid = valid && mass > 0.0;
    running += mass;
    out[i + 1] = running;
  }
  // Rare path: residue_mass throws the usual message at the first bad byte.
  if (!valid)
    for (const char c : residues) residue_mass(c);
}

double residue_mass_average(char c) {
  MSP_CHECK_MSG(is_residue(c), "not an amino-acid residue: '" << c << "'");
  return kAvg[static_cast<std::size_t>(letter_slot(c))];
}

double residue_frequency(char c) {
  MSP_CHECK_MSG(is_residue(c), "not an amino-acid residue: '" << c << "'");
  return kFreq[static_cast<std::size_t>(letter_slot(c))];
}

int residue_index(char c) {
  MSP_CHECK_MSG(is_residue(c), "not an amino-acid residue: '" << c << "'");
  return kDense[static_cast<std::size_t>(letter_slot(c))];
}

char residue_from_index(int index) {
  MSP_CHECK_MSG(index >= 0 && index < 20,
                "residue index out of range: " << index);
  return kResidueAlphabet[static_cast<std::size_t>(index)];
}

double peptide_mass(std::string_view sequence) {
  double mass = kWaterMass;
  for (char c : sequence) mass += residue_mass(c);
  return mass;
}

double mz_from_mass(double neutral_mass, int charge) {
  MSP_CHECK_MSG(charge >= 1, "charge must be >= 1");
  return (neutral_mass + charge * kProtonMass) / charge;
}

double mass_from_mz(double mz, int charge) {
  MSP_CHECK_MSG(charge >= 1, "charge must be >= 1");
  return mz * charge - charge * kProtonMass;
}

}  // namespace msp
