package main

// Example runs the quickstart's fidelity-policy batch and prints its Table 2
// row and the first three job rows.
func Example() {
	main()
	// Output:
	// device: ibm_strasbourg{qubits=127 free=127 clops=220000 score=0.00906}
	// device: ibm_brussels{qubits=127 free=127 clops=220000 score=0.00933}
	// device: ibm_kyiv{qubits=127 free=127 clops=30000 score=0.00731}
	// device: ibm_quebec{qubits=127 free=127 clops=32000 score=0.00666}
	// device: ibm_kawasaki{qubits=127 free=127 clops=29000 score=0.01300}
	//
	// fidelity Tsim=    28894.60  muF=0.73809 +- 0.01761  Tcomm=     94.92  k=2.00  wait=14313.1
	//
	// first three jobs:
	//   job-0000 waited 0s, ran on 2 devices, fidelity 0.7359
	//   job-0001 waited 551s, ran on 2 devices, fidelity 0.7323
	//   job-0002 waited 2150s, ran on 2 devices, fidelity 0.7511
}
