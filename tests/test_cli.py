import gzip
import itertools
import resource
import socket
from pathlib import Path

import numpy as np
import pytest

from fixtures import two_cluster_fixture
from kgembed.cli import build_parser, main, manifest_path, read_manifest
from kgembed.graph_io import Triple, load_graph, write_ntriples
from kgembed.trainer import NEGATIVE_GROUP, load_model


@pytest.fixture()
def workspace(tmp_path):
    """Small two-cluster graph on disk plus entity and gold files."""
    graph, nodes_a, nodes_b = two_cluster_fixture(size=4)
    graph_file = tmp_path / "graph.nt"
    write_ntriples(graph.resolved_triples(), graph_file)
    entities = nodes_a + nodes_b
    entities_file = tmp_path / "entities.txt"
    entities_file.write_text("".join(f"{e}\n" for e in entities))
    gold_file = tmp_path / "labels.tsv"
    gold_file.write_text(
        "".join(f"{e}\t{'a' if e in nodes_a else 'b'}\n" for e in entities)
    )
    return tmp_path, graph_file, entities_file, gold_file, entities


def run_walk(tmp_path, graph_file, entities_file, out_name="corpus.txt", extra=()):
    out = tmp_path / out_name
    rc = main(
        [
            "walk",
            "--graph", str(graph_file),
            "--entities", str(entities_file),
            "--walks", "12",
            "--depth", "3",
            "--seed", "7",
            "--out", str(out),
            *extra,
        ]
    )
    return rc, out


XSD = "http://www.w3.org/2001/XMLSchema#"


def _turtle(triples) -> str:
    """A Turtle document for ``triples`` that keeps their order: prefixed
    names, a ';' list for each run of one subject, a ',' list for each run
    of one predicate."""

    def term(token: str) -> str:
        if token.startswith('"'):
            body, typed, datatype = token.rpartition("^^<")
            return f"{body}^^xsd:{datatype[len(XSD):-1]}" if typed and datatype.startswith(XSD) else token
        if token.startswith("http://ex/"):
            return "ex:" + token[len("http://ex/") :]
        return f"<{token}>"

    lines = ["@prefix ex: <http://ex/> .", f"@prefix xsd: <{XSD}> ."]
    for subject, run in itertools.groupby(triples, key=lambda t: t.subject):
        lists = [
            f"{term(p)} " + " , ".join(term(t.object) for t in objects)
            for p, objects in itertools.groupby(run, key=lambda t: t.predicate)
        ]
        lines.append(f"{term(subject)}\n    " + " ;\n    ".join(lists) + " .")
    return "\n".join(lines) + "\n"


def assert_peak_memory(manifest):
    """A command records this process's VmHWM in MB, which can only have
    grown since; without ``/proc/self/status`` it records nothing. It also
    records the minor page faults so far, an integer that can only have grown."""
    faults = manifest["memory.minor_faults"]
    assert faults.isdigit()
    assert 0 < int(faults) <= resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    status = Path("/proc/self/status")
    if not status.exists():
        assert "memory.peak_mb" not in manifest
        return
    kb = next(line.split()[1] for line in status.read_text().splitlines() if line.startswith("VmHWM:"))
    assert 0 < float(manifest["memory.peak_mb"]) <= int(kb) / 1024 + 0.05


@pytest.fixture()
def address_space_cap():
    """Cap this process's address space at 64 GiB for one test, so that an
    allocation far past it is refused before any memory is touched, whatever
    the host's overcommit policy."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = min(limit for limit in (soft, hard, 64 << 30) if limit != resource.RLIM_INFINITY)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


class TestDefaults:
    def test_walk_defaults_mirror_standard_setup(self):
        args = build_parser().parse_args(["walk", "--graph", "g.nt"])
        assert args.walks == 500
        assert args.depth == 4
        assert args.mode == "light"

    def test_train_defaults(self):
        args = build_parser().parse_args(["train", "--corpus", "c.txt"])
        assert args.window == 5
        assert args.negatives == 25
        assert args.dim == 100
        assert args.mode == "sg"

    def test_dim_zero_rejected_as_usage_error(self):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["train", "--corpus", "c", "--dim", "0"])
        assert err.value.code == 2

    def test_unknown_task_exit_2_lists_tasks(self, capsys):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["eval", "--model", "m", "--task", "banana"])
        assert err.value.code == 2
        assert "classify" in capsys.readouterr().err

    def test_unknown_walk_mode_rejected(self):
        with pytest.raises(SystemExit) as err:
            build_parser().parse_args(["walk", "--graph", "g.nt", "--mode", "diagonal"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--model", "m", "--task", "classify", "--folds", "1"],
            ["serve", "--model", "m", "--port", "70000"],
            ["serve", "--model", "m", "--port", "-1"],
            # non-finite floats, refused while the arguments are parsed, so
            # before any command runs or writes a file
            ["eval", "--model", "m", "--task", "regress", "--gold", "g", "--ridge", "nan"],
            ["eval", "--model", "m", "--task", "regress", "--gold", "g", "--ridge", "inf"],
            ["train", "--corpus", "c", "--learning-rate", "inf"],
            ["train", "--corpus", "c", "--learning-rate", "nan"],
        ],
    )
    def test_out_of_range_flags_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "Traceback" not in capsys.readouterr().err


class TestWalkCommand:
    def test_light_with_all_entities_is_usage_error(self, workspace):
        tmp_path, graph_file, _, _, _ = workspace
        rc = main(["walk", "--graph", str(graph_file), "--entities", "all", "--mode", "light"])
        assert rc == 2
        rc = main(["walk", "--graph", str(graph_file), "--mode", "light"])
        assert rc == 2

    def test_classic_all_subjects(self, workspace, tmp_path):
        _, graph_file, _, _, _ = workspace
        out = tmp_path / "classic.txt"
        rc = main(
            ["walk", "--graph", str(graph_file), "--mode", "classic",
             "--walks", "3", "--depth", "2", "--out", str(out)]
        )
        assert rc == 0
        assert out.exists()

    def test_walk_writes_corpus_and_manifest(self, workspace):
        tmp_path, graph_file, entities_file, _, entities = workspace
        triples = graph_file.read_text().splitlines()
        graph_file.write_text(
            "# header\n\n" + "\n".join(triples) + "\n"
            "_:b <http://ex/p> <http://ex/a> .\n"  # parsed by the general parser
            "<http://ex/a> <http://ex/p>\n"  # truncated
        )
        rc, out = run_walk(tmp_path, graph_file, entities_file)
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 12 * len(entities)
        manifest = read_manifest(manifest_path(out))
        assert manifest["mode"] == "light"
        assert manifest["walks"] == "12"
        assert manifest["depth"] == "3"
        assert manifest["graph.0.sha256"]
        assert manifest["entities.path"] == str(entities_file)
        assert "workers" not in manifest  # walks always run on one thread
        assert "timing.walk_seconds" in manifest
        assert manifest["parse.triples"] == str(len(triples) + 1)
        assert manifest["parse.lines_skipped"] == "2"
        assert manifest["parse.errors"] == "1"
        assert manifest["parse.general_lines"] == "2"
        graph = load_graph([(graph_file, "ntriples")])
        assert manifest["graph.tokens"] == str(graph.num_tokens)
        assert manifest["graph.nodes"] == str(graph.num_nodes)
        assert manifest["graph.edges"] == str(graph.num_edges) == str(len(triples) + 1)
        lengths = [len(line.split(" ")) for line in lines]
        assert manifest["walk_tokens"] == str(sum(lengths))
        assert manifest["dead_ends"] == str(sum(n < 2 * 3 + 1 for n in lengths))  # --depth 3
        assert_peak_memory(manifest)

    def test_turtle_graph_writes_same_corpus_as_ntriples(self, workspace):
        tmp_path, graph_file, entities_file, _, _ = workspace
        triples = list(load_graph([(graph_file, "ntriples")]).resolved_triples())
        triples += [
            Triple("http://ex/a0", "http://ex/label", '"a \\"zero\\""@en'),
            Triple("http://ex/a0", "http://ex/size", f'"4"^^<{XSD}integer>'),
        ]
        write_ntriples(triples, graph_file)
        ttl_file = tmp_path / "graph.ttl"
        ttl_file.write_text(_turtle(triples), encoding="utf-8")
        literals = ("--include-literals",)
        _, from_nt = run_walk(tmp_path, graph_file, entities_file, "nt.txt", extra=literals)
        _, from_ttl = run_walk(tmp_path, ttl_file, entities_file, "ttl.txt", extra=literals)
        assert "zero" in from_nt.read_text()
        assert from_ttl.read_bytes() == from_nt.read_bytes()

    def test_malformed_turtle_exit_4_names_the_file(self, workspace, capsys):
        tmp_path, _, entities_file, _, _ = workspace
        ttl_file = tmp_path / "graph.ttl"
        ttl_file.write_text("@prefix ex: <http://ex/> .\nex:a0 ex:linked ex:a1 ;\n  ex:linked [ ex:p ex:b ] .\n")
        rc, _ = run_walk(tmp_path, ttl_file, entities_file)
        assert rc == 4
        err = capsys.readouterr().err
        assert err == f"error: line 3: unsupported-construct: blank-node property list (reading {ttl_file})\n"

    def test_walk_determinism_byte_identical(self, workspace):
        import gzip

        tmp_path, graph_file, entities_file, _, _ = workspace
        _, out1 = run_walk(tmp_path, graph_file, entities_file, "one.txt.gz")
        _, out2 = run_walk(tmp_path, graph_file, entities_file, "two.txt.gz")
        # the gzip header embeds the basename, so compare content across names
        assert gzip.decompress(out1.read_bytes()) == gzip.decompress(out2.read_bytes())
        first_bytes = out1.read_bytes()
        _, again = run_walk(tmp_path, graph_file, entities_file, "one.txt.gz")
        assert first_bytes == again.read_bytes()

    @pytest.mark.parametrize("char", ["\u00a0", "\u2028"])
    def test_entity_keeps_non_ascii_whitespace_at_its_ends(self, tmp_path, char):
        """An IRI may start or end in whitespace other than ASCII; the entity
        file loses only ASCII spaces, tabs and CRs around it."""
        iri = f"http://x/{char}a{char}"
        graph_file = tmp_path / "g.nt"
        graph_file.write_text(f"<{iri}> <http://x/p> <http://x/b> .\n<http://x/b> <http://x/p> <{iri}> .\n")
        entities_file = tmp_path / "e.txt"
        entities_file.write_bytes(f"# anchors\n \t{iri} \t\r\n".encode("utf-8"))
        rc, out = run_walk(tmp_path, graph_file, entities_file)
        assert rc == 0
        manifest = read_manifest(manifest_path(out))
        assert (manifest["entities_walked"], manifest["missing_entities"]) == ("1", "0")
        walks = [line.split(" ") for line in out.read_text(encoding="utf-8").split("\n") if line]
        assert len(walks) == 12 and all(iri in walk for walk in walks)

    def test_missing_entity_warns_with_warning_prefix(self, workspace, capsys):
        tmp_path, graph_file, entities_file, _, _ = workspace
        ghost = "http://ex/ghost"
        entities_file.write_text(entities_file.read_text() + f"{ghost}\n")
        rc, _ = run_walk(tmp_path, graph_file, entities_file)
        assert rc == 0
        assert capsys.readouterr().err.splitlines() == [f"warning: missing-entity: {ghost}"]

    def test_empty_entity_file_exit_4(self, workspace, tmp_path):
        _, graph_file, _, _, _ = workspace
        empty = tmp_path / "none.txt"
        empty.write_text("# nothing\n")
        rc = main(["walk", "--graph", str(graph_file), "--entities", str(empty)])
        assert rc == 4

    def test_missing_graph_exit_3(self, tmp_path):
        entities = tmp_path / "e.txt"
        entities.write_text("http://ex/a0\n")
        rc = main(["walk", "--graph", str(tmp_path / "nope.nt"), "--entities", str(entities)])
        assert rc == 3

    def test_unknown_extension_needs_format_flag(self, workspace, tmp_path):
        _, graph_file, entities_file, _, _ = workspace
        odd = tmp_path / "graph.rdfdata"
        odd.write_bytes(graph_file.read_bytes())
        rc = main(["walk", "--graph", str(odd), "--entities", str(entities_file)])
        assert rc == 2
        rc = main(
            ["walk", "--graph", str(odd), "--format", "ntriples",
             "--entities", str(entities_file), "--out", str(tmp_path / "c.txt")]
        )
        assert rc == 0


class TestTrainCommand:
    def test_train_writes_model_with_requested_dimension(self, workspace):
        tmp_path, graph_file, entities_file, _, _ = workspace
        _, corpus = run_walk(tmp_path, graph_file, entities_file)
        model_file = tmp_path / "model.txt"
        rc = main(
            ["train", "--corpus", str(corpus), "--dim", "16", "--epochs", "2",
             "--seed", "5", "--out", str(model_file)]
        )
        assert rc == 0
        header = model_file.read_text().splitlines()[0]
        assert header.split()[1] == "16"
        model = load_model(model_file)
        assert model.dimension == 16

    def test_strategy_tag_composed_from_corpus_manifest(self, workspace):
        tmp_path, graph_file, entities_file, _, _ = workspace
        _, corpus = run_walk(tmp_path, graph_file, entities_file)
        model_file = tmp_path / "model.txt"
        main(["train", "--corpus", str(corpus), "--dim", "16", "--epochs", "1", "--out", str(model_file)])
        manifest = read_manifest(manifest_path(model_file))
        assert manifest["strategy"] == "Light_12_3_SG_16"
        assert manifest["learning_rate"] == "0.025"
        assert manifest["negative_group"] == str(NEGATIVE_GROUP)  # model bytes depend on it

    def test_epoch_counters_and_phase_timings_in_manifest(self, workspace, capsys):
        tmp_path, graph_file, entities_file, _, _ = workspace
        _, corpus = run_walk(tmp_path, graph_file, entities_file)
        model_file = tmp_path / "model.txt"
        rc = main(["train", "--corpus", str(corpus), "--dim", "8", "--epochs", "2", "--out", str(model_file)])
        assert rc == 0
        err = capsys.readouterr().err
        assert "epoch=1" in err and "epoch=2" in err
        manifest = read_manifest(manifest_path(model_file))
        for n in (1, 2):
            for key in ("loss", "seconds", "pairs_per_second", "row_updates", "rows_clipped"):
                assert f"epoch.{n}.{key}" in manifest
            assert 0 <= int(manifest[f"epoch.{n}.rows_clipped"]) <= int(manifest[f"epoch.{n}.row_updates"])
        assert "epoch.3.loss" not in manifest
        assert manifest["epoch.2.loss"] == manifest["final_loss"]
        for phase in ("read", "train", "save"):
            assert float(manifest[f"timing.{phase}_seconds"]) >= 0
        assert_peak_memory(manifest)

    def test_diverging_learning_rate_exit_2(self, workspace, capsys):
        tmp_path, graph_file, entities_file, _, _ = workspace
        _, corpus = run_walk(tmp_path, graph_file, entities_file)
        rc = main(["train", "--corpus", str(corpus), "--learning-rate", "1e39", "--epochs", "1",
                   "--out", str(tmp_path / "m.txt")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error: non-finite loss" in err
        assert "Traceback" not in err

    def test_clipping_learning_rate_warns_and_exits_0(self, workspace, capsys):
        tmp_path, graph_file, entities_file, _, _ = workspace
        _, corpus = run_walk(tmp_path, graph_file, entities_file)
        capsys.readouterr()
        model_file = tmp_path / "m.txt"
        rc = main(["train", "--corpus", str(corpus), "--learning-rate", "1e30", "--epochs", "1",
                   "--out", str(model_file)])
        assert rc == 0
        manifest = read_manifest(manifest_path(model_file))
        clipped, updates = int(manifest["epoch.1.rows_clipped"]), int(manifest["epoch.1.row_updates"])
        assert clipped > updates / 2
        warnings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("warning:")]
        assert len(warnings) == 1
        assert f"clipped {clipped / updates:.0%} of its row totals" in warnings[0]
        assert "learning rate 1e+30" in warnings[0]

    def test_clipping_warning_printed_once(self, workspace, capsys):
        tmp_path, graph_file, entities_file, _, _ = workspace
        _, corpus = run_walk(tmp_path, graph_file, entities_file)
        capsys.readouterr()
        rc = main(["train", "--corpus", str(corpus), "--learning-rate", "1e30", "--epochs", "1",
                   "--out", str(tmp_path / "m.txt")])
        assert rc == 0
        lines = [line for line in capsys.readouterr().err.splitlines() if "of its row totals" in line]
        assert len(lines) == 1
        assert lines[0].startswith("warning: the final epoch clipped")

    def test_default_learning_rate_prints_no_warning(self, workspace, capsys):
        tmp_path, graph_file, entities_file, _, _ = workspace
        _, corpus = run_walk(tmp_path, graph_file, entities_file)
        capsys.readouterr()
        rc = main(["train", "--corpus", str(corpus), "--epochs", "2", "--out", str(tmp_path / "m.txt")])
        assert rc == 0
        assert "warning" not in capsys.readouterr().err

    # 10^11 floats: the input table (--dim) or the first chunk's negative
    # draws (--negatives) need hundreds of GiB, past the cap
    @pytest.mark.parametrize("flag", ["--dim", "--negatives"])
    def test_allocation_refused_exit_3(self, tmp_path, capsys, address_space_cap, flag):
        corpus = tmp_path / "c.txt"
        corpus.write_text("a b c\nb c a\n")
        rc = main(["train", "--corpus", str(corpus), flag, "100000000000", "--epochs", "1",
                   "--out", str(tmp_path / "m.txt")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: Unable to allocate")

    def test_min_count_filtering_everything_exit_4(self, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("a b c\n")
        rc = main(["train", "--corpus", str(corpus), "--min-count", "9", "--out", str(tmp_path / "m.txt")])
        assert rc == 4

    def test_empty_corpus_exit_4(self, tmp_path):
        corpus = tmp_path / "c.txt"
        corpus.write_text("")
        rc = main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "m.txt")])
        assert rc == 4


def _damaged_gzip(path, text, how):
    data = gzip.compress(text.encode(), mtime=0)
    if how == "truncated":
        data = data[: len(data) // 2]  # EOFError while reading
    else:
        data = data[:20] + bytes(b ^ 0xFF for b in data[20:60]) + data[60:]  # zlib.error
    path.write_bytes(data)


class TestDamagedInput:
    @pytest.mark.parametrize("how", ["truncated", "corrupt"])
    @pytest.mark.parametrize("command", ["walk", "train"])
    def test_damaged_gzip_exit_3(self, workspace, capsys, command, how):
        tmp_path, graph_file, entities_file, _, _ = workspace
        if command == "walk":
            damaged = tmp_path / "graph.nt.gz"
            _damaged_gzip(damaged, graph_file.read_text() * 20, how)
            argv = ["walk", "--graph", str(damaged), "--entities", str(entities_file)]
        else:
            damaged = tmp_path / "corpus.txt.gz"
            _damaged_gzip(damaged, "http://ex/a http://ex/p http://ex/b\n" * 2000, how)
            argv = ["train", "--corpus", str(damaged)]
        rc = main([*argv, "--out", str(tmp_path / "out.txt")])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(damaged) in err

    @pytest.mark.parametrize("command", ["walk --entities", "train --corpus", "eval --gold", "eval --model", "serve --model"])
    def test_non_utf8_text_input_exit_4(self, trained, capsys, command):
        tmp_path, corpus, model_file, gold_file, _ = trained
        graph_file = tmp_path / "graph.nt"
        bad = tmp_path / "bad.txt"
        good = {"--entities": tmp_path / "entities.txt", "--corpus": corpus, "--gold": gold_file, "--model": model_file}
        bad.write_bytes(good[command.split()[1]].read_bytes() + b"http://ex/\xff\xfe 1\n")
        with socket.socket() as blocker:
            # a model that loads would make serve exit 3 on this port, not block
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            argvs = {
                "walk --entities": ["walk", "--graph", str(graph_file), "--entities", str(bad)],
                "train --corpus": ["train", "--corpus", str(bad), "--out", str(tmp_path / "m2.txt")],
                "eval --gold": ["eval", "--model", str(model_file), "--task", "classify", "--gold", str(bad)],
                "eval --model": ["eval", "--model", str(bad), "--task", "classify", "--gold", str(gold_file)],
                "serve --model": ["serve", "--model", str(bad), "--port", str(blocker.getsockname()[1])],
            }
            rc = main(argvs[command])
        assert rc == 4
        err = capsys.readouterr().err
        assert "error: 'utf-8' codec can't decode" in err
        assert str(bad) in err


@pytest.fixture()
def trained(workspace):
    tmp_path, graph_file, entities_file, gold_file, entities = workspace
    _, corpus = run_walk(tmp_path, graph_file, entities_file, "corpus.txt")
    model_file = tmp_path / "model.txt"
    main(
        ["train", "--corpus", str(corpus), "--dim", "16", "--epochs", "2",
         "--seed", "5", "--out", str(model_file)]
    )
    return tmp_path, corpus, model_file, gold_file, entities


class TestEvalCommand:
    def test_classify_csv_output(self, trained, capsys):
        tmp_path, _, model_file, gold_file, _ = trained
        rc = main(
            ["eval", "--model", str(model_file), "--task", "classify",
             "--gold", str(gold_file), "--folds", "4"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "strategy,task,metric,value"
        strategy, task, metric, value = lines[1].split(",")
        assert strategy == "Light_12_3_SG_16"
        assert (task, metric) == ("classify", "accuracy")
        assert len(value.split(".")[1]) == 4

    def test_regress_task(self, trained, capsys):
        tmp_path, _, model_file, _, entities = trained
        gold = tmp_path / "targets.tsv"
        gold.write_text("".join(f"{e}\t{i * 1.5}\n" for i, e in enumerate(entities)))
        rc = main(
            ["eval", "--model", str(model_file), "--task", "regress",
             "--gold", str(gold), "--folds", "4"]
        )
        assert rc == 0
        assert ",regress,rmse," in capsys.readouterr().out

    def test_singular_ridge_exit_4(self, trained, capsys, monkeypatch):
        """A ridge too small to solve the normal equations is a data error,
        as ``--ridge 0`` on a rank-deficient design is, not a traceback."""
        tmp_path, _, model_file, _, entities = trained
        gold = tmp_path / "targets.tsv"
        gold.write_text("".join(f"{e}\t{i * 1.5}\n" for i, e in enumerate(entities)))

        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        rc = main(["eval", "--model", str(model_file), "--task", "regress", "--gold", str(gold),
                   "--folds", "2", "--ridge", "1e-30"])
        assert rc == 4
        err = capsys.readouterr().err
        assert err == "error: design matrix is rank deficient at ridge 1e-30; use a larger ridge penalty\n"

    @pytest.mark.parametrize("ridge", ["1e-15", "1e-30"])
    def test_negligible_ridge_on_rank_deficient_design_exit_4(self, trained, capsys, ridge):
        """Two folds train on 4 of the 8 entities in 16 dimensions. A ridge
        within the Gram matrix's rounding counts as zero, so it is refused
        instead of solving to a meaningless RMSE."""
        tmp_path, _, model_file, _, entities = trained
        gold = tmp_path / "targets.tsv"
        gold.write_text("".join(f"{e}\t{i * 1.5}\n" for i, e in enumerate(entities)))
        rc = main(["eval", "--model", str(model_file), "--task", "regress", "--gold", str(gold),
                   "--folds", "2", "--ridge", ridge])
        assert rc == 4
        err = capsys.readouterr().err
        assert err == f"error: design matrix is rank deficient at ridge {ridge}; use a larger ridge penalty\n"

    def test_entity_rel_task(self, trained, capsys):
        tmp_path, _, model_file, _, entities = trained
        gold = tmp_path / "rel.txt"
        gold.write_text(f"{entities[0]}\n" + "".join(f"\t{e}\n" for e in entities[1:5]))
        rc = main(["eval", "--model", str(model_file), "--task", "entity-rel", "--gold", str(gold)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "spearman_mean" in out

    def test_doc_rel_task(self, trained, capsys):
        tmp_path, _, model_file, _, entities = trained
        gold = tmp_path / "docs.tsv"
        gold.write_text(
            f"doc\td1\t{entities[0]} {entities[1]}\n"
            f"doc\td2\t{entities[4]} {entities[5]}\n"
            f"doc\td3\t{entities[2]}\n"
            "pair\td1\td2\t1.0\npair\td1\td3\t3.0\npair\td2\td3\t2.0\n"
        )
        rc = main(["eval", "--model", str(model_file), "--task", "doc-rel", "--gold", str(gold)])
        assert rc == 0
        assert "harmonic_mean" in capsys.readouterr().out

    def test_density_requires_corpus(self, trained):
        _, _, model_file, gold_file, _ = trained
        rc = main(["eval", "--model", str(model_file), "--task", "density", "--gold", str(gold_file)])
        assert rc == 2

    def test_density_uses_corpus_and_entities_from_manifest(self, trained, capsys):
        tmp_path, corpus, model_file, _, _ = trained
        rc = main(["eval", "--model", str(model_file), "--task", "density", "--corpus", str(corpus)])
        assert rc == 0
        out = capsys.readouterr().out
        assert ",density,nodes," in out
        assert ",density,mean_anchor_degree," in out

    def test_gold_task_without_gold_is_usage_error(self, trained):
        _, _, model_file, _, _ = trained
        rc = main(["eval", "--model", str(model_file), "--task", "classify"])
        assert rc == 2

    def test_majority_out_of_vocabulary_exit_4(self, trained, tmp_path):
        _, _, model_file, _, _ = trained
        gold = tmp_path / "oov.tsv"
        gold.write_text("http://ex/g1\tx\nhttp://ex/g2\tx\nhttp://ex/g3\ty\n")
        rc = main(["eval", "--model", str(model_file), "--task", "classify", "--gold", str(gold)])
        assert rc == 4

    def test_eval_out_file_matches_stdout(self, trained, capsys):
        tmp_path, _, model_file, gold_file, _ = trained
        out_file = tmp_path / "results.csv"
        rc = main(
            ["eval", "--model", str(model_file), "--task", "classify",
             "--gold", str(gold_file), "--folds", "4", "--out", str(out_file)]
        )
        assert rc == 0
        assert out_file.read_text() == capsys.readouterr().out
        manifest = read_manifest(manifest_path(out_file))
        gold = gold_file.read_text().splitlines()
        vocabulary = load_model(model_file).vocabulary
        assert manifest["gold.entities"] == str(len(gold))
        assert manifest["gold.out_of_vocabulary"] == str(sum(line.split("\t")[0] not in vocabulary for line in gold))
        assert_peak_memory(manifest)

    def test_manifest_counts_out_of_vocabulary_gold_entities(self, trained, tmp_path):
        _, _, model_file, gold_file, entities = trained
        gold = tmp_path / "partly_oov.tsv"
        gold.write_text(gold_file.read_text() + "http://ex/g1\ta\n")
        rc = main(["eval", "--model", str(model_file), "--task", "classify", "--gold", str(gold), "--folds", "4"])
        assert rc == 0
        manifest = read_manifest(f"{model_file}.eval.manifest")
        assert manifest["gold.entities"] == str(len(entities) + 1)
        assert manifest["gold.out_of_vocabulary"] == "1"


class TestServeCommand:
    def test_missing_model_exit_3(self, tmp_path):
        rc = main(["serve", "--model", str(tmp_path / "nope.txt")])
        assert rc == 3

    def test_malformed_model_exit_4(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a model\n")
        rc = main(["serve", "--model", str(bad)])
        assert rc == 4

    @staticmethod
    def run_on_bad_model(tmp_path, command, model_text):
        bad = tmp_path / "bad.txt"
        bad.write_text(model_text)
        gold = tmp_path / "gold.tsv"
        gold.write_text("http://ex/a\tx\nhttp://ex/b\ty\n")
        with socket.socket() as blocker:
            # a model that loads would make serve exit 3 on this port, not block
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = str(blocker.getsockname()[1])
            extra = ["--port", port] if command == "serve" else ["--task", "classify", "--gold", str(gold)]
            return main([command, "--model", str(bad), *extra])

    @pytest.mark.parametrize("command", ["serve", "eval"])
    def test_non_finite_model_exit_4(self, tmp_path, capsys, command):
        rc = self.run_on_bad_model(tmp_path, command, "2 2\nhttp://ex/a 1 2\nhttp://ex/b nan inf\n")
        assert rc == 4
        assert "line 3: non-finite value" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["serve", "eval"])
    def test_oversized_header_dimension_exit_4(self, tmp_path, capsys, command):
        rc = self.run_on_bad_model(tmp_path, command, "1 1000000000000\nhttp://ex/a 1\n")
        assert rc == 4
        assert "line 2: expected a token and 1000000000000 floats" in capsys.readouterr().err

    def test_port_in_use_exit_3(self, tmp_path):
        model_file = tmp_path / "m.txt"
        model_file.write_text("1 2\nhttp://ex/a 1 2\n")
        with socket.socket() as blocker:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            rc = main(["serve", "--model", str(model_file), "--port", str(port)])
        assert rc == 3

    def test_startup_log_health_and_clean_sigterm_shutdown(self, tmp_path):
        import json
        import re
        import signal
        import subprocess
        import sys
        import time
        import urllib.request

        model_file = tmp_path / "m.txt"
        model_file.write_text("3 2\nhttp://ex/a 1 0\nhttp://ex/b 0 1\nhttp://ex/z 0 0\n")
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "kgembed.cli", "serve",
             "--model", str(model_file), "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            assert "3 vectors" in line and "dimension 2" in line
            port = int(re.search(r":(\d+)$", line.strip()).group(1))
            deadline = time.time() + 10
            body = None
            while time.time() < deadline:
                try:
                    with urllib.request.urlopen(f"http://127.0.0.1:{port}/health", timeout=2) as r:
                        body = json.loads(r.read())
                    break
                except OSError:
                    time.sleep(0.05)
            assert body is not None and body["dimension"] == 2
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) == 0
            manifest = read_manifest(f"{model_file}.serve.manifest")
            assert manifest["command"] == "serve"
            assert manifest["dimension"] == "2"
            assert manifest["index.rows"] == "3"
            assert manifest["index.zero_rows"] == "1"
            assert float(manifest["timing.index_seconds"]) >= 0.0
            assert "1 of 3 vectors are zero" in proc.stderr.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


class TestPipelineDeterminism:
    def test_two_runs_identical_outputs(self, workspace):
        tmp_path, graph_file, entities_file, gold_file, _ = workspace
        outputs = []
        for run in ("one", "two"):
            run_dir = tmp_path / run
            run_dir.mkdir()
            corpus = run_dir / "corpus.txt"
            model = run_dir / "model.txt"
            csv_out = run_dir / "results.csv"
            assert main(
                ["walk", "--graph", str(graph_file), "--entities", str(entities_file),
                 "--walks", "8", "--depth", "3", "--seed", "11", "--workers", "1",
                 "--out", str(corpus)]
            ) == 0
            assert main(
                ["train", "--corpus", str(corpus), "--dim", "12", "--epochs", "2",
                 "--seed", "11", "--workers", "1", "--out", str(model)]
            ) == 0
            assert main(
                ["eval", "--model", str(model), "--task", "classify",
                 "--gold", str(gold_file), "--folds", "4", "--out", str(csv_out)]
            ) == 0
            outputs.append((corpus.read_bytes(), model.read_bytes(), csv_out.read_bytes()))
        assert outputs[0] == outputs[1]
