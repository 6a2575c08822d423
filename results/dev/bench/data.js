window.BENCHMARK_DATA = {
  "lastUpdate": 1791115025249,
  "entries": {
    "Containment join benchmarks": [
      {
        "commit": {
          "id": "7b41ed951a9719f76949e3e6d27c7aff2ac84412",
          "message": "Add live ingest: epoch snapshots, gap-aware re-encoding, compaction — single-core run, exp=batch scale=0.02 docscale=0.2 buffer=128 pagesize=4096; elapsed = virtual disk time + wall CPU",
          "timestamp": "2026-08-08T07:52:42Z"
        },
        "date": 1786175562029,
        "tool": "go",
        "benches": [
          {
            "name": "batch/D1/MHCJ+Rollup/serial",
            "value": 22696923,
            "unit": "ns/op",
            "extra": "pageIO=61 pairs=1183 wall=697µs"
          },
          {
            "name": "batch/D1/MHCJ+Rollup/batch",
            "value": 12718083,
            "unit": "ns/op",
            "extra": "pageIO=12 pairs=1183 wall=518µs"
          },
          {
            "name": "batch/D2/MHCJ+Rollup/serial",
            "value": 22086881,
            "unit": "ns/op",
            "extra": "pageIO=57 pairs=19 wall=887µs"
          },
          {
            "name": "batch/D2/MHCJ+Rollup/batch",
            "value": 13118713,
            "unit": "ns/op",
            "extra": "pageIO=12 pairs=19 wall=919µs"
          },
          {
            "name": "batch/D3/MHCJ+Rollup/serial",
            "value": 22188199,
            "unit": "ns/op",
            "extra": "pageIO=57 pairs=8 wall=988µs"
          },
          {
            "name": "batch/D3/MHCJ+Rollup/batch",
            "value": 13150736,
            "unit": "ns/op",
            "extra": "pageIO=12 pairs=8 wall=951µs"
          },
          {
            "name": "batch/D4/MHCJ+Rollup/serial",
            "value": 41754669,
            "unit": "ns/op",
            "extra": "pageIO=151 pairs=14308 wall=1.755ms"
          },
          {
            "name": "batch/D4/MHCJ+Rollup/batch",
            "value": 17264389,
            "unit": "ns/op",
            "extra": "pageIO=29 pairs=14308 wall=1.664ms"
          },
          {
            "name": "batch/D5/MHCJ+Rollup/serial",
            "value": 64279382,
            "unit": "ns/op",
            "extra": "pageIO=250 pairs=25274 wall=4.479ms"
          },
          {
            "name": "batch/D5/MHCJ+Rollup/batch",
            "value": 32454272,
            "unit": "ns/op",
            "extra": "pageIO=41 pairs=25274 wall=14.454ms"
          },
          {
            "name": "batch/D6/MHCJ+Rollup/serial",
            "value": 20877439,
            "unit": "ns/op",
            "extra": "pageIO=52 pairs=2967 wall=677µs"
          },
          {
            "name": "batch/D6/MHCJ+Rollup/batch",
            "value": 15814287,
            "unit": "ns/op",
            "extra": "pageIO=11 pairs=2967 wall=3.814ms"
          },
          {
            "name": "batch/D7/MHCJ+Rollup/serial",
            "value": 67527846,
            "unit": "ns/op",
            "extra": "pageIO=266 pairs=28230 wall=4.528ms"
          },
          {
            "name": "batch/D7/MHCJ+Rollup/batch",
            "value": 21475369,
            "unit": "ns/op",
            "extra": "pageIO=44 pairs=28230 wall=2.875ms"
          },
          {
            "name": "batch/D8/MHCJ+Rollup/serial",
            "value": 28905677,
            "unit": "ns/op",
            "extra": "pageIO=90 pairs=8424 wall=1.106ms"
          },
          {
            "name": "batch/D8/MHCJ+Rollup/batch",
            "value": 14244699,
            "unit": "ns/op",
            "extra": "pageIO=18 pairs=8424 wall=845µs"
          },
          {
            "name": "batch/D9/MHCJ+Rollup/serial",
            "value": 24761944,
            "unit": "ns/op",
            "extra": "pageIO=72 pairs=8017 wall=562µs"
          },
          {
            "name": "batch/D9/MHCJ+Rollup/batch",
            "value": 13088786,
            "unit": "ns/op",
            "extra": "pageIO=14 pairs=8017 wall=489µs"
          },
          {
            "name": "batch/D10/MHCJ+Rollup/serial",
            "value": 65153655,
            "unit": "ns/op",
            "extra": "pageIO=266 pairs=28230 wall=2.154ms"
          },
          {
            "name": "batch/D10/MHCJ+Rollup/batch",
            "value": 20858707,
            "unit": "ns/op",
            "extra": "pageIO=44 pairs=28230 wall=2.259ms"
          },
          {
            "name": "batch/D1-D10 mix/MHCJRollup/serial",
            "value": 380232615,
            "unit": "ns/op",
            "extra": "pageIO=1322 pairs=116660 wall=17.833ms"
          },
          {
            "name": "batch/D1-D10 mix/MHCJRollup/batch",
            "value": 174188041,
            "unit": "ns/op",
            "extra": "pageIO=237 pairs=116660 wall=28.788ms"
          }
        ]
      },
      {
        "commit": {
          "id": "91ce4048c0fb917995b7bc1469de4be7a2ec1b0b",
          "message": "PR 15 working tree (recorded before commit, on parent 91ce404): one execution path, rows /fixed and /batch differ by page format alone — 2-core sandbox, one shot per row, exp=batch scale=0.02 docscale=0.2 buffer=128 pagesize=4096; elapsed = virtual disk time + wall CPU",
          "timestamp": "2026-09-26T14:14:56Z"
        },
        "date": 1790432096621,
        "tool": "go",
        "benches": [
          {
            "name": "batch/D1/MHCJ+Rollup/fixed",
            "value": 27900737,
            "unit": "ns/op",
            "extra": "pageIO=61 pairs=1183 wall=5.901ms"
          },
          {
            "name": "batch/D1/MHCJ+Rollup/batch",
            "value": 12836847,
            "unit": "ns/op",
            "extra": "pageIO=12 pairs=1183 wall=637µs"
          },
          {
            "name": "batch/D2/MHCJ+Rollup/fixed",
            "value": 21662575,
            "unit": "ns/op",
            "extra": "pageIO=57 pairs=19 wall=463µs"
          },
          {
            "name": "batch/D2/MHCJ+Rollup/batch",
            "value": 12769177,
            "unit": "ns/op",
            "extra": "pageIO=12 pairs=19 wall=569µs"
          },
          {
            "name": "batch/D3/MHCJ+Rollup/fixed",
            "value": 21722936,
            "unit": "ns/op",
            "extra": "pageIO=57 pairs=8 wall=523µs"
          },
          {
            "name": "batch/D3/MHCJ+Rollup/batch",
            "value": 12836138,
            "unit": "ns/op",
            "extra": "pageIO=12 pairs=8 wall=636µs"
          },
          {
            "name": "batch/D4/MHCJ+Rollup/fixed",
            "value": 41331526,
            "unit": "ns/op",
            "extra": "pageIO=151 pairs=14308 wall=1.332ms"
          },
          {
            "name": "batch/D4/MHCJ+Rollup/batch",
            "value": 17199044,
            "unit": "ns/op",
            "extra": "pageIO=29 pairs=14308 wall=1.599ms"
          },
          {
            "name": "batch/D5/MHCJ+Rollup/fixed",
            "value": 61518591,
            "unit": "ns/op",
            "extra": "pageIO=250 pairs=25274 wall=1.719ms"
          },
          {
            "name": "batch/D5/MHCJ+Rollup/batch",
            "value": 20892791,
            "unit": "ns/op",
            "extra": "pageIO=41 pairs=25274 wall=2.893ms"
          },
          {
            "name": "batch/D6/MHCJ+Rollup/fixed",
            "value": 20613760,
            "unit": "ns/op",
            "extra": "pageIO=52 pairs=2967 wall=414µs"
          },
          {
            "name": "batch/D6/MHCJ+Rollup/batch",
            "value": 12517393,
            "unit": "ns/op",
            "extra": "pageIO=11 pairs=2967 wall=517µs"
          },
          {
            "name": "batch/D7/MHCJ+Rollup/fixed",
            "value": 65009585,
            "unit": "ns/op",
            "extra": "pageIO=266 pairs=28230 wall=2.01ms"
          },
          {
            "name": "batch/D7/MHCJ+Rollup/batch",
            "value": 21549720,
            "unit": "ns/op",
            "extra": "pageIO=44 pairs=28230 wall=2.95ms"
          },
          {
            "name": "batch/D8/MHCJ+Rollup/fixed",
            "value": 28622981,
            "unit": "ns/op",
            "extra": "pageIO=90 pairs=8424 wall=823µs"
          },
          {
            "name": "batch/D8/MHCJ+Rollup/batch",
            "value": 31838460,
            "unit": "ns/op",
            "extra": "pageIO=18 pairs=8424 wall=18.438ms"
          },
          {
            "name": "batch/D9/MHCJ+Rollup/fixed",
            "value": 36610484,
            "unit": "ns/op",
            "extra": "pageIO=72 pairs=8017 wall=12.41ms"
          },
          {
            "name": "batch/D9/MHCJ+Rollup/batch",
            "value": 20775933,
            "unit": "ns/op",
            "extra": "pageIO=14 pairs=8017 wall=8.176ms"
          },
          {
            "name": "batch/D10/MHCJ+Rollup/fixed",
            "value": 71658089,
            "unit": "ns/op",
            "extra": "pageIO=266 pairs=28230 wall=8.658ms"
          },
          {
            "name": "batch/D10/MHCJ+Rollup/batch",
            "value": 27706704,
            "unit": "ns/op",
            "extra": "pageIO=44 pairs=28230 wall=9.107ms"
          },
          {
            "name": "batch/D1-D10 mix/MHCJRollup/fixed",
            "value": 396651264,
            "unit": "ns/op",
            "extra": "pageIO=1322 pairs=116660 wall=34.251ms"
          },
          {
            "name": "batch/D1-D10 mix/MHCJRollup/batch",
            "value": 190922207,
            "unit": "ns/op",
            "extra": "pageIO=237 pairs=116660 wall=45.522ms"
          }
        ]
      },
      {
        "commit": {
          "id": "b6acf291aa73bf36af687324e109bf6ad9e58a33",
          "message": "PR 24 working tree (recorded before commit, on parent b6acf29): rows /batch are packed pages, the layout every writer emits; rows /fixed the paper layout (Config.PaperLayout) — 2-core sandbox, one shot per row, exp=batch scale=0.02 docscale=0.2 buffer=128 pagesize=4096; elapsed = virtual disk time + wall CPU",
          "timestamp": "2026-10-04T11:57:05Z"
        },
        "date": 1791115025249,
        "tool": "go",
        "benches": [
          {
            "name": "batch/D1/MHCJ+Rollup/fixed",
            "value": 23090453,
            "unit": "ns/op",
            "extra": "pageIO=61 pairs=1183 wall=1.09ms"
          },
          {
            "name": "batch/D1/MHCJ+Rollup/batch",
            "value": 12329491,
            "unit": "ns/op",
            "extra": "pageIO=8 pairs=1183 wall=929µs"
          },
          {
            "name": "batch/D2/MHCJ+Rollup/fixed",
            "value": 25902440,
            "unit": "ns/op",
            "extra": "pageIO=57 pairs=19 wall=4.702ms"
          },
          {
            "name": "batch/D2/MHCJ+Rollup/batch",
            "value": 12253779,
            "unit": "ns/op",
            "extra": "pageIO=8 pairs=19 wall=854µs"
          },
          {
            "name": "batch/D3/MHCJ+Rollup/fixed",
            "value": 22318275,
            "unit": "ns/op",
            "extra": "pageIO=57 pairs=8 wall=1.118ms"
          },
          {
            "name": "batch/D3/MHCJ+Rollup/batch",
            "value": 11892313,
            "unit": "ns/op",
            "extra": "pageIO=8 pairs=8 wall=492µs"
          },
          {
            "name": "batch/D4/MHCJ+Rollup/fixed",
            "value": 41504975,
            "unit": "ns/op",
            "extra": "pageIO=151 pairs=14308 wall=1.505ms"
          },
          {
            "name": "batch/D4/MHCJ+Rollup/batch",
            "value": 14718766,
            "unit": "ns/op",
            "extra": "pageIO=19 pairs=14308 wall=1.119ms"
          },
          {
            "name": "batch/D5/MHCJ+Rollup/fixed",
            "value": 61128760,
            "unit": "ns/op",
            "extra": "pageIO=250 pairs=25274 wall=1.329ms"
          },
          {
            "name": "batch/D5/MHCJ+Rollup/batch",
            "value": 17205943,
            "unit": "ns/op",
            "extra": "pageIO=32 pairs=25274 wall=1.006ms"
          },
          {
            "name": "batch/D6/MHCJ+Rollup/fixed",
            "value": 20510017,
            "unit": "ns/op",
            "extra": "pageIO=52 pairs=2967 wall=310µs"
          },
          {
            "name": "batch/D6/MHCJ+Rollup/batch",
            "value": 11491077,
            "unit": "ns/op",
            "extra": "pageIO=7 pairs=2967 wall=291µs"
          },
          {
            "name": "batch/D7/MHCJ+Rollup/fixed",
            "value": 64499558,
            "unit": "ns/op",
            "extra": "pageIO=266 pairs=28230 wall=1.5ms"
          },
          {
            "name": "batch/D7/MHCJ+Rollup/batch",
            "value": 17875247,
            "unit": "ns/op",
            "extra": "pageIO=34 pairs=28230 wall=1.275ms"
          },
          {
            "name": "batch/D8/MHCJ+Rollup/fixed",
            "value": 28424340,
            "unit": "ns/op",
            "extra": "pageIO=90 pairs=8424 wall=624µs"
          },
          {
            "name": "batch/D8/MHCJ+Rollup/batch",
            "value": 12749277,
            "unit": "ns/op",
            "extra": "pageIO=12 pairs=8424 wall=549µs"
          },
          {
            "name": "batch/D9/MHCJ+Rollup/fixed",
            "value": 24711161,
            "unit": "ns/op",
            "extra": "pageIO=72 pairs=8017 wall=511µs"
          },
          {
            "name": "batch/D9/MHCJ+Rollup/batch",
            "value": 12239892,
            "unit": "ns/op",
            "extra": "pageIO=10 pairs=8017 wall=440µs"
          },
          {
            "name": "batch/D10/MHCJ+Rollup/fixed",
            "value": 65004757,
            "unit": "ns/op",
            "extra": "pageIO=266 pairs=28230 wall=2.005ms"
          },
          {
            "name": "batch/D10/MHCJ+Rollup/batch",
            "value": 18304899,
            "unit": "ns/op",
            "extra": "pageIO=34 pairs=28230 wall=1.705ms"
          },
          {
            "name": "batch/D1-D10 mix/MHCJRollup/fixed",
            "value": 377094736,
            "unit": "ns/op",
            "extra": "pageIO=1322 pairs=116660 wall=14.695ms"
          },
          {
            "name": "batch/D1-D10 mix/MHCJRollup/batch",
            "value": 141060684,
            "unit": "ns/op",
            "extra": "pageIO=172 pairs=116660 wall=8.661ms"
          }
        ]
      }
    ]
  }
}
