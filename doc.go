// Package siren is a complete Go implementation of SIREN — Software
// Identification and Recognition in HPC Systems (Jakobsche et al., SC 2025).
//
// SIREN collects process-level metadata, environment information, and SSDeep
// fuzzy hashes of executables via an LD_PRELOAD-injected library, ships them
// as chunked UDP messages to a receiver backed by an embedded database, and
// analyses the consolidated records to identify software usage, recognise
// repeated executions, and match unknown executables to known ones by
// similarity.
//
// The public entry point is internal/core.Pipeline; the cmd/ directory holds
// runnable tools (siren-campaign regenerates every table and figure of the
// paper's evaluation). See DESIGN.md for the system inventory and
// EXPERIMENTS.md for the paper-versus-measured comparison.
package siren

// Version identifies this reproduction build.
const Version = "1.0.0"
