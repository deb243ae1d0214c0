// Amino-acid residue chemistry: the mass substrate every other module sits on.
//
// Masses are monoisotopic residue masses in daltons (Da) from the standard
// IUPAC tables (same values SEQUEST / X!Tandem / MSPolygraph use). A peptide
// of residues r1..rk has neutral mass  sum(mass(ri)) + H2O;  its singly
// protonated m/z is that plus one proton mass.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

namespace msp {

/// Monoisotopic mass of one water molecule (added once per peptide).
inline constexpr double kWaterMass = 18.0105646863;
/// Monoisotopic proton mass (charge carrier for m/z conversion).
inline constexpr double kProtonMass = 1.00727646688;

/// The 20 standard residues. 'X' (unknown) is handled by is_residue() = false.
inline constexpr std::string_view kResidueAlphabet = "ACDEFGHIKLMNPQRSTVWY";

/// True iff `c` is one of the 20 standard residue codes (upper-case).
bool is_residue(char c) noexcept;

/// Monoisotopic residue mass in Da. Precondition: is_residue(c).
double residue_mass(char c);

/// Running monoisotopic residue-mass sums of `residues` into `sums` (resized
/// to residues.size() + 1, reusing its buffer): sums[k] is the mass of the
/// first k residues, added left to right — the exact doubles a loop over
/// residue_mass produces. A 256-entry table indexed by the byte value does
/// the lookups, so no byte can index out of bounds and the hot loop makes no
/// call; any non-residue byte throws InvalidArgument, as residue_mass does.
void residue_prefix_sums(std::string_view residues, std::vector<double>& sums);

/// Average residue mass in Da: the isotope-weighted counterpart of
/// residue_mass. Reference data only; every search scores monoisotopic
/// masses.
double residue_mass_average(char c);

/// Natural abundance (frequency) of each residue in UniProt, used by the
/// synthetic database generator so candidate statistics match real proteins.
double residue_frequency(char c);

/// Residue code for dense table indexing: A=0 … Y=19. Precondition:
/// is_residue(c). Inverse of residue_from_index.
int residue_index(char c);
char residue_from_index(int index);

/// Neutral monoisotopic mass of the peptide `sequence` (residues + water).
/// Throws InvalidArgument on any non-residue character.
double peptide_mass(std::string_view sequence);

/// Singly-protonated m/z of a peptide with the given neutral mass & charge.
double mz_from_mass(double neutral_mass, int charge);

/// Neutral mass back from observed m/z at the given charge.
double mass_from_mz(double mz, int charge);

}  // namespace msp
