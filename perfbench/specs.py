"""Workload definitions: the horolab CLI call each workload makes.

Kept free of heavy imports, because the child process imports it before
the set-up time is stamped.
"""

# Each workload is one `horolab` CLI call; the argument lists are passed
# to horolab's own argument parser and config resolution unchanged.
CLI_ARGV = {
    # k = 1 Gauss reduction on dense Gauss-Legendre nodes (0.005 apart on
    # one arc, about 2 M of them); the sieve is idle.
    "horocycle-k1": ["average", "--timeset", "interval", "T=1e4",
                     "--point", "preset:generic1", "--observable", "preset:bump1",
                     "--workers", "1"],
    # Hilbert (k = 2) reduction: the 400 k-sample reference arc plus 1e5
    # polynomial times; k = 1 reduction and sieve are idle.
    "hilbert-k2": ["average", "--lattice", "hilbert", "D=2",
                   "--point", "coords:0.1,1.3,0.4,-0.2,1.1,1.7",
                   "--timeset", "poly", "N=1e5", "--workers", "1"],
    # sieve chain (u-tilde scan, Omega, bounds) over 1e6 integer-time orbit
    # nodes that share no reduction words; the chunk pool runs on 2 threads.
    "dichotomy-almost": ["dichotomy", "mode=almost", "--point", "preset:generic1",
                         "N=1e6", "--workers", "2"],
}
