// Package repro is a from-scratch Go reproduction of "Equi-Joins over
// Encrypted Data for Series of Queries" (Shafieinejad, Gupta, Liu,
// Karabina, Kerschbaum — ICDE 2022). The implementation lives under
// internal/: the bn256 pairing substrate, function-hiding inner-product
// encryption, the Secure Join scheme, baseline join-encryption schemes,
// a leakage analyzer, a TPC-H workload generator and a client/server
// encrypted-DBMS engine. See README.md for a tour and DESIGN.md for the
// system inventory; cmd/sjbench regenerates the paper's figures.
package repro
