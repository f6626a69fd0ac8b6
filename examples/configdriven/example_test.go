package main

// Example runs the embedded spec.json; its output is the fleet, the Table 2 row
// and the per-device load of the fidelity policy.
func Example() {
	main()
	// Output:
	// cloud from spec:
	//   eagle_fast     127 qubits  CLOPS 220000  error score 0.00927  topology edges 142
	//   lattice_clean  100 qubits  CLOPS  45000  error score 0.00617  topology edges 180
	//   chain_legacy    80 qubits  CLOPS  20000  error score 0.01413  topology edges 79
	//
	// fidelity Tsim=    44215.43  muF=0.72372 +- 0.04087  Tcomm=    214.64  k=2.30  wait=18759.7
	// device load (error-aware policy prefers the clean lattice):
	//   chain_legacy    12 sub-jobs (13%)
	//   eagle_fast      40 sub-jobs (43%)
	//   lattice_clean   40 sub-jobs (43%)
}
