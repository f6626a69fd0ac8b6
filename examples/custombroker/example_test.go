package main

// Example compares the built-in policies with the custom broker on one
// synthetic workload.
func Example() {
	main()
	// Output:
	// policy              T_sim (s)             fidelity   T_comm (s)      k
	// speed                 37608.4    0.68200 +- 0.03876        731.9   2.84
	// fidelity             127942.2    0.73880 +- 0.02076        390.6   2.00
	// fair                  38935.6    0.68856 +- 0.04287        424.9   2.08
	// balanced-custom       43217.4    0.69199 +- 0.04400        450.1   2.14
	//
	// The custom broker interpolates the fidelity/fair trade-off:
	// tune ErrorWeight to move along the paper's speed-fidelity frontier.
}
