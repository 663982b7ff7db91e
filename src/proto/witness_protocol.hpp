// The AC^3TW witness-commitment protocol (Zakhary et al., paper Section
// II-C) executed on the two-ledger substrate.
//
// A trusted witness -- the "centralized trusted witness" of AC^3TW --
// generates the secret and hands both parties its hash.  Each party locks
// into an ordinary HTLC whose preimage only the witness knows:
//
//   t1: Alice decides; on cont she locks P* token-a on Chain_a
//       (recipient Bob, expiry t_a).
//   t2: Bob verifies and decides; on cont he locks 1 token-b on Chain_b
//       (recipient Alice, expiry t_b).
//   t3 = t2 + tau_b (Bob's lock confirmed): the witness checks both locks.
//       Both present  -> it submits BOTH claims (atomic commit).
//       Bob missing   -> it stays silent; the time locks refund (abort).
//
// Neither party ever learns the secret, so neither holds any post-lock
// optionality: the paper's t3/t4 decisions do not exist in this family.
// (Substitution note: Zakhary et al. exchange votes/proofs rather than a
// hash preimage; a witness-held preimage over standard HTLCs realizes the
// same commit/abort semantics on our substrate -- see DESIGN.md.)
//
// The run is run_swap's 2-cycle on the same state machine (swap_machine.hpp)
// with the secret held by the witness, so fault models, offline windows,
// confirmation jitter, expiry_margin, auditing, tracing and metrics act on
// it exactly as on run_swap.
#pragma once

#include "swap_protocol.hpp"

namespace swapgame::proto {

/// Runs one witness-commitment swap.  Reuses SwapSetup/SwapResult;
/// setup.collateral or setup.premium > 0 throws std::invalid_argument (the
/// witness makes them moot).  Without jitter or faults the outcome is
/// kNotInitiated, kBobDeclinedT2 or kSuccess.  Strategies are consulted at
/// Stage::kT1Initiate (Alice) and Stage::kT2Lock (Bob) only.
[[nodiscard]] SwapResult run_witness_swap(const SwapSetup& setup,
                                          agents::Strategy& alice,
                                          agents::Strategy& bob,
                                          const PricePath& path);

/// The same run in the caller's workspace (see run_swap).
[[nodiscard]] SwapResult run_witness_swap(const SwapSetup& setup,
                                          agents::Strategy& alice,
                                          agents::Strategy& bob,
                                          const PricePath& path,
                                          DirectRun& workspace);

}  // namespace swapgame::proto
