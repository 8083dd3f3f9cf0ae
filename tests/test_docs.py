"""The documentation's code examples must actually run."""

import pathlib
import re

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def python_blocks(markdown: str):
    return re.findall(r"```python\n(.*?)```", markdown, flags=re.DOTALL)


class TestReadme:
    def test_quickstart_block_executes(self):
        readme = (REPO_ROOT / "README.md").read_text()
        blocks = python_blocks(readme)
        assert blocks, "README lost its quickstart example"
        namespace = {}
        exec(compile(blocks[0], "README.md", "exec"), namespace)
        result = namespace["result"]
        assert np.array_equal(result.output, np.sort(namespace["keys"]))

    def test_readme_mentions_all_docs(self):
        readme = (REPO_ROOT / "README.md").read_text()
        for doc in ("EXPERIMENTS.md", "DESIGN.md", "docs/ARCHITECTURE.md",
                    "docs/CALIBRATION.md"):
            assert doc in readme
            assert (REPO_ROOT / doc).exists()


class TestPackageDocstring:
    def test_module_example_executes(self):
        import repro

        match = re.search(r"Quickstart::\n\n((?:    .*\n)+)",
                          repro.__doc__)
        assert match, "package docstring lost its example"
        code = "\n".join(line[4:] for line in
                         match.group(1).splitlines())
        namespace = {}
        exec(compile(code, "repro/__init__.py", "exec"), namespace)

    def test_every_public_module_has_a_docstring(self):
        import importlib

        for name in ("repro.sim.engine", "repro.sim.flows",
                     "repro.hw.topology", "repro.hw.systems",
                     "repro.runtime.memcpy", "repro.runtime.multihop",
                     "repro.gpuprims.functional", "repro.cpuprims.stream",
                     "repro.sort.p2p", "repro.sort.het",
                     "repro.sort.radix_partition", "repro.sort.pivot",
                     "repro.bench.harness", "repro.analysis.timeline"):
            module = importlib.import_module(name)
            assert module.__doc__ and len(module.__doc__) > 40, name


class TestDesignIndex:
    def test_every_indexed_bench_file_exists(self):
        design = (REPO_ROOT / "DESIGN.md").read_text()
        for path in re.findall(r"`(benchmarks/bench_[a-z0-9_]+\.py)`",
                               design):
            assert (REPO_ROOT / path).exists(), path

    def test_experiments_md_is_current_format(self):
        experiments = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        for marker in ("Table 2", "Figure 14", "Figure 15a",
                       "Extension: single-exchange RP sort",
                       "Extension: NUMA-aware input placement"):
            assert marker in experiments, marker


class TestBenchmarkCoverage:
    def test_one_bench_file_per_registered_experiment_family(self):
        bench_dir = REPO_ROOT / "benchmarks"
        names = {p.name for p in bench_dir.glob("bench_*.py")}
        for required in ("bench_table2_single_gpu.py",
                         "bench_fig1_headline.py",
                         "bench_fig12_ac922_sort.py",
                         "bench_fig15a_large_data.py",
                         "bench_fig16_distributions.py",
                         "bench_ablations.py",
                         "bench_ext_rp_sort.py",
                         "bench_ext_multihop.py",
                         "bench_ext_key_value.py",
                         "bench_ext_numa_gpu_merge.py",
                         "bench_ext_co_running.py"):
            assert required in names, required
