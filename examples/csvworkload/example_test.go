package main

// Example runs the five-job CSV trace under the speed and fidelity policies
// and prints each job's row from the records.
func Example() {
	main()
	// Output:
	// loaded 5 deterministic jobs
	//   QJob(vqe-h2o q=180 d=12 s=50000 t2=540 arr=0.0)
	//   QJob(qaoa-maxcut q=240 d=18 s=80000 t2=1080 arr=120.0)
	//   QJob(qft-sim q=150 d=8 s=25000 t2=300 arr=400.0)
	//   QJob(chem-lih q=200 d=15 s=60000 t2=750 arr=650.0)
	//   QJob(qv-stress q=250 d=20 s=100000 t2=1250 arr=900.0)
	//
	// == speed ==
	//   vqe-h2o      wait     0.0s  exec    162.7s  fidelity 0.6921  devices ibm_brussels+ibm_strasbourg
	//   qaoa-maxcut  wait     0.0s  exec   1876.3s  fidelity 0.6861  devices ibm_strasbourg+ibm_quebec+ibm_kyiv
	//   qft-sim      wait     0.0s  exec     82.5s  fidelity 0.7095  devices ibm_brussels+ibm_strasbourg
	//   chem-lih     wait     0.0s  exec   1408.0s  fidelity 0.6598  devices ibm_brussels+ibm_strasbourg+ibm_kyiv
	//   qv-stress    wait  1096.3s  exec   2343.3s  fidelity 0.6798  devices ibm_strasbourg+ibm_quebec+ibm_kyiv
	//   total: Tsim=4339.6s muF=0.6855 Tcomm=34.2s
	//
	// == fidelity ==
	//   vqe-h2o      wait     0.0s  exec   1170.3s  fidelity 0.7486  devices ibm_quebec+ibm_kyiv
	//   qaoa-maxcut  wait  1050.3s  exec   1871.5s  fidelity 0.7058  devices ibm_quebec+ibm_kyiv
	//   qft-sim      wait  2641.7s  exec    586.3s  fidelity 0.7664  devices ibm_quebec+ibm_kyiv
	//   chem-lih     wait  2978.1s  exec   1404.0s  fidelity 0.7320  devices ibm_quebec+ibm_kyiv
	//   qv-stress    wait  4132.1s  exec   2338.3s  fidelity 0.6944  devices ibm_quebec+ibm_kyiv
	//   total: Tsim=7370.4s muF=0.7294 Tcomm=20.4s
}
