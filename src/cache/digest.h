// Canonical snippet digests for result caching and digest-consistent shard
// routing (DESIGN.md §13).
//
// Advice is a pure function of the code text, so two requests whose snippets
// differ only in insignificant whitespace must hit the same cache entry and
// route to the same shard. `normalize_snippet` collapses exactly that
// equivalence class, tracking lexical state the way frontend::lex does:
// whitespace runs between tokens and inside comments become one space and
// edges are trimmed, but string and char literals are kept verbatim and the
// newline ending a `//` comment or a `#` line stays a newline, because
// folding either would merge two different programs. `snippet_digest` is
// FNV-1a 64 over the normalized bytes. 0 is reserved as "no digest"
// (admin/cmd payloads, unparseable requests), so the digest function never
// returns it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace clpp::cache {

/// Canonical form: leading/trailing whitespace trimmed, every other run of
/// insignificant whitespace collapsed to a single space, or to one newline
/// where the run ends a `//` comment or a `#` line; literals kept verbatim.
std::string normalize_snippet(const std::string& code);

/// FNV-1a 64-bit over raw bytes.
std::uint64_t fnv1a64(const char* data, std::size_t len);

/// Digest of the normalized snippet. Never returns 0 (reserved: no digest).
std::uint64_t snippet_digest(const std::string& code);

/// Rendezvous (highest-random-weight) score for placing `key` on `slot`:
/// each slot scores every key independently, the live slot with the highest
/// score owns the key. Removing a slot only moves the keys it owned; keys
/// come back home when it returns (see ShardSupervisor::route).
std::uint64_t rendezvous_score(std::uint64_t key, std::uint64_t slot);

}  // namespace clpp::cache
