// FASTA input/output for EST datasets.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "bio/sequence.hpp"

namespace estclust::bio {

/// Parses FASTA records from a stream. Multi-line sequences are joined;
/// bases are uppercased and validated. Throws CheckError on malformed input
/// (sequence data before the first header, invalid characters, a record
/// with no bases, or an id used by an earlier record); the message names
/// the input line, and the record id for an invalid base, an empty record
/// or a repeated id (with both header lines).
std::vector<Sequence> read_fasta(std::istream& in);

/// Reads a FASTA file from disk. Throws CheckError if the file can't open.
std::vector<Sequence> read_fasta_file(const std::string& path);

/// Writes records with `width`-column wrapping (0 = single line).
void write_fasta(std::ostream& out, const std::vector<Sequence>& seqs,
                 std::size_t width = 70);

void write_fasta_file(const std::string& path,
                      const std::vector<Sequence>& seqs,
                      std::size_t width = 70);

}  // namespace estclust::bio
