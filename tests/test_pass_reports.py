"""Every registry port's compile against output captured before it
changed, and the shared-program assumption it rests on.

``data/pass_reports.json`` holds the sha256 of
``render_pass_report(compiled)`` for every registry port and of the
``passes --all`` output, recorded while state snapshots were still
rendered eagerly during the compile; lazily rendered snapshots must
reproduce them byte for byte.  Equal benchmark-builder arguments return
one shared ``Program``, so no pass may mutate the IR it is given.
"""

import hashlib
import json
from pathlib import Path

import pytest

import repro.pipeline.passes as passes_mod
from repro.benchmarks import BENCHMARK_ORDER, get_benchmark, jacobi, lud
from repro.harness.cli import main as cli_main
from repro.ir.serialize import program_to_dict
from repro.models import COMPILERS
from repro.models.cache import clear_compile_cache, compile_port
from repro.pipeline import render_pass_report
from repro.pipeline import core as core_mod

PINNED = json.loads(
    (Path(__file__).parent / "data" / "pass_reports.json").read_text())


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _registry_ports():
    """``(benchmark, model, variant)`` of every port the registry has."""
    for name in BENCHMARK_ORDER:
        bench = get_benchmark(name)
        for model in COMPILERS:
            for variant in bench.variants(model):
                try:
                    bench.port(model, variant)
                except KeyError:
                    continue  # no port of this benchmark to this model
                yield name, model, variant


@pytest.fixture(autouse=True)
def _fresh_store():
    clear_compile_cache()
    yield
    clear_compile_cache()


def test_every_port_report_matches_the_pin():
    got = {f"{name}/{model}/{variant}":
           _sha(render_pass_report(compile_port(name, model, variant)[1]))
           for name, model, variant in _registry_ports()}
    assert got == PINNED["reports"]


def test_passes_all_matches_the_pin(capsys):
    assert cli_main(["passes", "--all"]) == 0
    assert _sha(capsys.readouterr().out) == PINNED["passes --all"]


def test_snapshots_render_on_first_read_only(monkeypatch):
    renders = []
    real = core_mod.render_state

    def counting(*args):
        renders.append(args)
        return real(*args)
    monkeypatch.setattr(core_mod, "render_state", counting)
    _, compiled, _ = compile_port("JACOBI", "OpenACC")
    assert renders == []
    first = render_pass_report(compiled)
    rendered = len(renders)
    assert rendered > 0
    assert render_pass_report(compiled) == first
    assert len(renders) == rendered


def test_equal_builder_arguments_share_one_program():
    assert jacobi._program_2d(7) is jacobi._program_2d(iters=7)
    assert jacobi._program_2d(7) is not jacobi._program_2d(8)
    # a default spelled out is the same argument
    assert lud._build(True) is lud._build(two_d_update=True,
                                          with_clauses=True)
    bench = get_benchmark("LUD")
    assert bench.port("OpenACC").program is bench.port("OpenACC").program
    assert bench.program is lud._build(two_d_update=False)


def test_compiling_leaves_shared_programs_unchanged():
    """A pass that mutated the IR it was given would change a program
    every port with equal builder arguments shares."""
    ports = list(_registry_ports())
    programs = {}
    for name, model, variant in ports:
        program = get_benchmark(name).port(model, variant).program
        programs[id(program)] = program
    assert (len(ports), len(programs)) == (128, 38)

    def digests():
        return {key: _sha(json.dumps(program_to_dict(program),
                                     sort_keys=True))
                for key, program in programs.items()}
    before = digests()
    for port in ports:
        compile_port(*port)
    assert digests() == before



def test_memoized_array_summaries_equal_fresh_ones():
    """The intake pass's memoized read/write summaries against a fresh
    derivation, over every region of every registry port (the
    hand-written SRAD port's regions share names with the directive
    ports' but not their arrays)."""
    ports = [get_benchmark(name).port(model, variant)
             for name, model, variant in _registry_ports()]
    memoized = [passes_mod.region_arrays(region, port.program)
                for port in ports for region in port.program.regions]
    fresh = [passes_mod._region_arrays(region.body, port.program)
             for port in ports for region in port.program.regions]
    assert memoized == fresh
