#!/usr/bin/env python3
"""Shape checks on the JSON artifacts CI's jobs produce.

Usage: tools/ci/check_artifacts.py CHECK FILE...

  trace    Chrome trace JSON from svm_tool --trace-out
  micro    bench_micro --json output
  table3   bench_table3_efficiency --json output (--host-threads=4)
  cluster  bench_cluster_scaling --json output

Each check exits nonzero (an AssertionError) when the artifact is malformed,
and prints one summary line per file when it holds. Deterministic fields are
compared against the committed snapshots by tools/bench_diff.py, not here.
"""

import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def check_trace(path):
    events = load(path)['traceEvents']
    assert any(e.get('ph') == 'X' for e in events), path
    print(path, 'OK:', len(events), 'records')


def check_micro(path):
    names = [b['name'] for b in load(path)['benchmarks']]
    assert any('BM_BatchKernelRowsSparseMT/512/4' in n for n in names), names
    for shape in ('mnist', 'retrain_k16', 'cifar10'):
        for batch in (5, 16, 64):
            bench = 'BM_BatchKernelRows/%s/%d' % (shape, batch)
            assert bench in names, (bench, names)
    for bench in ('BM_KernelBufferChurn', 'BM_KernelBufferLru',
                  'BM_KernelBufferLruHotSet'):
        assert bench in names, (bench, names)
    for rows in (4, 8, 16):
        bench = 'BM_PanelDecisionValues/%d' % rows
        assert bench in names, (bench, names)
    for k in (16, 64):
        for rows in (4, 8):
            bench = 'BM_CouplePanel/%d/%d' % (k, rows)
            assert bench in names, (bench, names)
    for threads in (2, 4):
        bench = 'BM_ParallelForDispatch/%d/real_time' % threads
        assert bench in names, (bench, names)
    print('micro benchmarks:', len(names))


def check_table3(path):
    report = load(path)
    assert report['host_threads'] == 4, report['host_threads']
    assert report['rows'], 'no rows'
    for row in report['rows']:
        assert row['train_sim_seconds'] > 0, row
        assert row['train_wall_seconds'] > 0, row
    print('table3 rows:', len(report['rows']))


def check_cluster(path):
    rows = load(path)['rows']
    assert rows, 'no rows'

    # The sweep coordinate is encoded in the impl column:
    # 'GMP-SVM cluster xN' / 'GMP-SVM nodes xN' / 'GMP-SVM shard xN'.
    def sweep(kind):
        return {int(r['impl'].rsplit('x', 1)[1]): r['train_sim_seconds']
                for r in rows if r['impl'].startswith('GMP-SVM ' + kind)}

    devices = sweep('cluster')
    assert devices[4] < devices[2] < devices[1], devices
    nodes = sweep('nodes')
    assert sorted(nodes) == [1, 2, 4], nodes
    shards = sweep('shard')
    assert shards[4] < shards[2] < shards[1], shards
    print('cluster sweep points:', sorted(devices),
          'nodes:', sorted(nodes), 'shards:', sorted(shards))


CHECKS = {
    'trace': check_trace,
    'micro': check_micro,
    'table3': check_table3,
    'cluster': check_cluster,
}


def main(argv):
    if len(argv) < 3 or argv[1] not in CHECKS:
        sys.stderr.write(__doc__)
        return 2
    for path in argv[2:]:
        CHECKS[argv[1]](path)
    return 0


if __name__ == '__main__':
    sys.exit(main(sys.argv))
