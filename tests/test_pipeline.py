import json
import random
import threading
import time
from dataclasses import fields, replace

import pytest
import requests
import yaml

import afsp.pipeline
import afsp.retrieval
from afsp.degeneration import DegenerationOp, apply_op, generate_dataset
from afsp.embedding import init_projections, save_table
from afsp.errors import AfspError, FingerprintMismatch, InputNotUtf8, StageError, VersionMismatch
from afsp.llm_client import (
    CandidateSet,
    ChatCompletionsClient,
    GenerationConfig,
    MockClient,
    fingerprint,
)
from afsp.pipeline import (
    PipelineConfig,
    TranslationPipeline,
    audit_record,
    load_config,
    load_retrieval_stack,
)
from afsp.reranker import train
from afsp.retrieval import Weights, build_index, save_index
from afsp.reranker import save_model
from helpers import corpus_table, synthetic_corpus


@pytest.fixture(scope="module")
def stack():
    """Corpus, index, trained scorer: the full offline artifact set."""
    corpus = synthetic_corpus(80, seed=61, unique_src=True)
    table = corpus_table(dim=32)
    proj = init_projections(32, seed=17)
    index = build_index(corpus, table, proj)
    dataset = generate_dataset(corpus, max_size=2, seed=19, table=table)
    scorer, _ = train(dataset, epochs=10, seed=23, feature_dim=1 << 14)
    return corpus, table, proj, index, scorer


def make_pipeline(stack, client, **config_kwargs):
    corpus, table, proj, index, scorer = stack
    defaults = dict(projection_seed=17, k=3)
    defaults.update(config_kwargs)
    config = PipelineConfig(**defaults)
    return TranslationPipeline(
        index=index,
        table=table,
        projections=proj,
        config=config,
        client=client,
        scorer=scorer,
    )


def scripted_client(pipeline, stack, inputs, candidates_for):
    """Map each input's rendered prompt to its candidate list."""
    script = {}
    for text in inputs:
        prompt = pipeline.build_prompt(text)
        script[fingerprint(prompt)] = candidates_for(text)
    return MockClient(script)


def test_translate_selects_clean_reference(stack):
    corpus, table, proj, index, scorer = stack
    pipeline = make_pipeline(
        stack, client=None, generation=GenerationConfig(n_candidates=3)
    )
    probes = list(corpus)[:10]

    def candidates(src_text):
        pair = next(p for p in corpus if p.src_text == src_text)
        corrupted = apply_op(
            DegenerationOp.INSERT, pair, pair.tgt_text, random.Random(41)
        )
        return [pair.tgt_text, pair.src_text, corrupted]

    pipeline.client = scripted_client(pipeline, stack, [p.src_text for p in probes], candidates)
    for pair in probes:
        result = pipeline.translate(pair.src_text)
        assert result.best == pair.tgt_text
        assert len(result.candidates) == 3
        assert result.candidates[0][0] == result.best
        scores = [s for _, s in result.candidates]
        assert scores == sorted(scores, reverse=True)


def test_translate_demo_provenance(stack):
    corpus, *_ = stack
    pipeline = make_pipeline(stack, client=None, generation=GenerationConfig(n_candidates=1))
    text = corpus[5].src_text
    pipeline.client = scripted_client(pipeline, stack, [text], lambda t: ["whatever"])
    result = pipeline.translate(text)
    assert len(result.demos_used) == 3
    corpus_ids = {p.id for p in corpus}
    assert set(result.demos_used) <= corpus_ids
    assert result.demos_used[0] == corpus[5].id  # exact source match retrieves itself


def test_translate_single_candidate_bypasses_reranker(stack):
    corpus, table, proj, index, _ = stack
    config = PipelineConfig(projection_seed=17, k=2, generation=GenerationConfig(n_candidates=1))
    pipeline = TranslationPipeline(
        index=index, table=table, projections=proj, config=config, client=None, scorer=None
    )
    text = corpus[0].src_text
    pipeline.client = scripted_client(pipeline, stack, [text], lambda t: ["sole candidate"])
    result = pipeline.translate(text)
    assert result.best == "sole candidate"
    assert result.candidates == (("sole candidate", None),)


def test_translate_zero_shot_k0(stack):
    corpus, *_ = stack
    pipeline = make_pipeline(stack, client=None, k=0, generation=GenerationConfig(n_candidates=1))
    text = corpus[1].src_text
    prompt = pipeline.build_prompt(text)
    assert "1." not in prompt
    pipeline.client = MockClient({fingerprint(prompt): ["zero shot output"]})
    result = pipeline.translate(text)
    assert result.best == "zero shot output"
    assert result.demos_used == ()


def test_translate_requires_scorer_for_multiple_candidates(stack):
    corpus, table, proj, index, _ = stack
    config = PipelineConfig(projection_seed=17, k=1, generation=GenerationConfig(n_candidates=2))
    pipeline = TranslationPipeline(
        index=index, table=table, projections=proj, config=config, client=None, scorer=None
    )
    text = corpus[2].src_text
    pipeline.client = scripted_client(pipeline, stack, [text], lambda t: ["a", "b"])
    with pytest.raises(StageError) as excinfo:
        pipeline.translate(text)
    assert excinfo.value.stage == "rerank"


def test_translate_stage_error_labels(stack):
    pipeline = make_pipeline(stack, client=MockClient({}), generation=GenerationConfig(n_candidates=2))
    with pytest.raises(StageError) as excinfo:
        pipeline.translate("双方同意加强合作。")
    assert excinfo.value.stage == "generation"
    with pytest.raises(StageError) as excinfo:
        pipeline.translate("   ")
    assert excinfo.value.stage == "retrieval"


def test_translate_deterministic(stack):
    corpus, *_ = stack
    pipeline = make_pipeline(stack, client=None, generation=GenerationConfig(n_candidates=3))
    text = corpus[7].src_text

    def candidates(t):
        return ["first candidate", "second candidate", "third candidate"]

    pipeline.client = scripted_client(pipeline, stack, [text], candidates)
    first = pipeline.translate(text)
    second = pipeline.translate(text)
    assert first == second


def test_translate_file_order_and_failures(stack, tmp_path):
    corpus, *_ = stack
    pipeline = make_pipeline(stack, client=None, generation=GenerationConfig(n_candidates=1))
    lines = [corpus[0].src_text, corpus[1].src_text, corpus[2].src_text]
    script = {}
    for i, text in enumerate(lines):
        if i == 1:
            continue  # line 2 left unscripted: generation stage fails
        script[fingerprint(pipeline.build_prompt(text))] = [f"translation {i}"]
    pipeline.client = MockClient(script)

    inp = tmp_path / "in.txt"
    out = tmp_path / "out.txt"
    audit = tmp_path / "audit.jsonl"
    inp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    summary = pipeline.translate_file(inp, out, audit_path=audit)

    assert summary.count == 3
    assert summary.failures == 1
    assert summary.wall_time >= 0
    produced = out.read_text(encoding="utf-8").split("\n")
    assert produced == ["translation 0", "", "translation 2", ""]

    records = [json.loads(line) for line in audit.read_text(encoding="utf-8").splitlines()]
    assert len(records) == 3
    assert records[0]["best"] == "translation 0"
    assert records[0]["demos"]
    assert records[0]["candidates"][0]["text"] == "translation 0"
    assert "error" in records[1]
    assert records[1]["input"] == lines[1]


def test_translate_file_full_test_set(stack, tmp_path):
    corpus, *_ = stack
    pipeline = make_pipeline(stack, client=None, generation=GenerationConfig(n_candidates=1))
    rng = random.Random(97)
    lines = [rng.choice(corpus.pairs).src_text for _ in range(500)]
    script = {}
    for text in set(lines):
        script[fingerprint(pipeline.build_prompt(text))] = ["ok"]
    pipeline.client = MockClient(script)

    inp = tmp_path / "in.txt"
    out = tmp_path / "out.txt"
    inp.write_text("\n".join(lines) + "\n", encoding="utf-8")
    summary = pipeline.translate_file(inp, out)
    assert summary.count == 500
    assert summary.failures == 0
    assert out.read_text(encoding="utf-8").splitlines() == ["ok"] * 500


def run_file(pipeline, tmp_path, lines):
    """translate_file over lines: (summary, output lines, audit lines)."""
    inp, out, audit = tmp_path / "in.txt", tmp_path / "out.txt", tmp_path / "audit.jsonl"
    inp.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    summary = pipeline.translate_file(inp, out, audit_path=audit)
    produced = out.read_text(encoding="utf-8").split("\n")
    assert produced[-1] == ""
    return summary, produced[:-1], audit.read_text(encoding="utf-8").splitlines(keepends=True)


def test_translate_file_labels_any_error_and_carries_on(stack, tmp_path):
    corpus, *_ = stack
    pipeline = make_pipeline(stack, client=None, generation=GenerationConfig(n_candidates=1))
    lines = [corpus[i].src_text for i in range(5)]
    mock = scripted_client(pipeline, stack, lines, lambda t: [f"out {lines.index(t)}"])
    broken = fingerprint(pipeline.build_prompt(lines[2]))

    class Client:
        def generate_candidates(self, prompt, cfg):
            if fingerprint(prompt) == broken:
                raise RuntimeError("connection pool exploded")
            return mock.generate_candidates(prompt, cfg)

    pipeline.client = Client()
    summary, produced, records = run_file(pipeline, tmp_path, lines)
    assert (summary.count, summary.failures) == (5, 1)
    assert produced == ["out 0", "out 1", "", "out 3", "out 4"]
    assert json.loads(records[2]) == {"input": lines[2], "error": "[generation] connection pool exploded"}
    # the single caller labels it the same way
    with pytest.raises(StageError) as excinfo:
        pipeline.translate(lines[2])
    assert excinfo.value.stage == "generation"
    assert isinstance(excinfo.value.cause, RuntimeError)


def test_translate_file_streams_blocks_through_a_bounded_window(stack, tmp_path, monkeypatch):
    corpus, *_ = stack
    pipeline = make_pipeline(
        stack, client=None, generation=GenerationConfig(n_candidates=1, max_in_flight=4)
    )
    block = 16 // 4
    lines = [corpus[i].src_text for i in range(45)]
    pipeline.client = scripted_client(pipeline, stack, lines, lambda t: [f"out {lines.index(t)}"])
    out = tmp_path / "out.txt"
    blocks, ahead = [], []
    real = afsp.pipeline.retrieve_many

    def spy(texts, *args, **kwargs):
        # lines retrieved before this block whose output is not written yet
        ahead.append(sum(blocks) - len(out.read_text(encoding="utf-8").splitlines()))
        blocks.append(len(texts))
        return real(texts, *args, **kwargs)

    monkeypatch.setattr(afsp.pipeline, "retrieve_many", spy)
    summary, produced, _ = run_file(pipeline, tmp_path, lines)
    assert (summary.count, summary.failures) == (45, 0)
    assert produced == [f"out {i}" for i in range(45)]
    assert blocks == [block] * 11 + [1]
    assert max(ahead) <= block


def three_candidates(corpus):
    """Each source's reference, its source and a corrupted reference."""

    def candidates(src_text):
        pair = next(p for p in corpus if p.src_text == src_text)
        corrupted = apply_op(DegenerationOp.INSERT, pair, pair.tgt_text, random.Random(41))
        return [pair.src_text, corrupted, pair.tgt_text]

    return candidates


@pytest.mark.parametrize("max_in_flight", [1, 4])
def test_translate_file_ranks_blocks_as_translate_ranks_each_line(stack, tmp_path, max_in_flight):
    corpus, *_ = stack
    pipeline = make_pipeline(
        stack, client=None, generation=GenerationConfig(n_candidates=3, max_in_flight=max_in_flight)
    )
    lines = [corpus[i].src_text for i in range(37)]
    pipeline.client = scripted_client(pipeline, stack, lines[:30], three_candidates(corpus))
    lines += ["   "]  # a retrieval failure; the last 7 lines fail in generation
    summary, produced, records = run_file(pipeline, tmp_path, lines)
    expected = []
    for line in lines:
        try:
            expected.append(pipeline.translate(line))
        except StageError as exc:
            expected.append(exc)
    assert (summary.count, summary.failures) == (38, 8)
    assert produced == [r.best if not isinstance(r, StageError) else "" for r in expected]
    assert records == [audit_record(line, r) for line, r in zip(lines, expected)]
    # the reference, listed last, is picked: the ranking reorders candidates
    assert sum(r.best == p.tgt_text for r, p in zip(expected[:30], corpus)) >= 25


def test_translate_file_blank_candidate_fails_its_line_alone_in_rerank(stack, tmp_path):
    corpus, *_ = stack
    pipeline = make_pipeline(stack, client=None, generation=GenerationConfig(n_candidates=3))
    lines = [corpus[i].src_text for i in range(6)]
    mock = scripted_client(pipeline, stack, lines, three_candidates(corpus))
    blank = fingerprint(pipeline.build_prompt(lines[3]))

    class Client:
        def generate_candidates(self, prompt, cfg):
            if fingerprint(prompt) == blank:
                return CandidateSet(blank, ("a candidate", " \t "))
            return mock.generate_candidates(prompt, cfg)

    pipeline.client = Client()
    summary, produced, records = run_file(pipeline, tmp_path, lines)
    assert (summary.count, summary.failures) == (6, 1)
    assert json.loads(records[3]) == {
        "input": lines[3],
        "error": "[rerank] cannot featurize empty text",
    }
    assert produced[3] == ""
    assert [produced[i] for i in (0, 1, 2, 4, 5)] == [
        pipeline.translate(lines[i]).best for i in (0, 1, 2, 4, 5)
    ]


def test_translate_file_generation_failure_does_not_stall_the_blocks_rank(stack, tmp_path):
    corpus, *_ = stack
    pipeline = make_pipeline(
        stack, client=None, generation=GenerationConfig(n_candidates=3, max_in_flight=4)
    )
    lines = [corpus[i].src_text for i in range(8)]
    mock = scripted_client(pipeline, stack, lines, three_candidates(corpus))
    # the first block's last line fails after the others have generated
    slow = fingerprint(pipeline.build_prompt(lines[3]))

    class Client:
        def generate_candidates(self, prompt, cfg):
            if fingerprint(prompt) == slow:
                time.sleep(0.2)
                raise RuntimeError("endpoint went away")
            return mock.generate_candidates(prompt, cfg)

    pipeline.client = Client()
    outcome = []
    runner = threading.Thread(
        target=lambda: outcome.append(run_file(pipeline, tmp_path, lines)), daemon=True
    )
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive() and len(outcome) == 1
    summary, produced, records = outcome[0]
    assert (summary.count, summary.failures) == (8, 1)
    assert json.loads(records[3])["error"] == "[generation] endpoint went away"
    assert [produced[i] for i in (0, 1, 2)] == [pipeline.translate(lines[i]).best for i in (0, 1, 2)]


def test_translate_file_ranks_on_the_calling_thread_while_workers_generate(stack, tmp_path):
    corpus, *_, scorer = stack
    pipeline = make_pipeline(
        stack, client=None, generation=GenerationConfig(n_candidates=3, max_in_flight=1)
    )
    lines = [corpus[i].src_text for i in range(32)]  # two blocks of 16
    mock = scripted_client(pipeline, stack, lines, three_candidates(corpus))
    second_block = fingerprint(pipeline.build_prompt(lines[16]))
    generating = threading.Event()
    caller = threading.current_thread()
    on_caller, overlapped = [], []

    class Client:
        def generate_candidates(self, prompt, cfg):
            if fingerprint(prompt) == second_block:
                generating.set()
            return mock.generate_candidates(prompt, cfg)

    class Scorer:
        def score_many(self, texts):
            on_caller.append(threading.current_thread() is caller)
            # the only worker must be free to generate the second block
            # while the first is ranked
            overlapped.append(generating.wait(timeout=5))
            return scorer.score_many(texts)

    pipeline.client, pipeline.scorer = Client(), Scorer()
    summary, produced, _ = run_file(pipeline, tmp_path, lines)
    assert (summary.count, summary.failures) == (32, 0)
    assert on_caller and all(on_caller)
    assert all(overlapped)
    pipeline.scorer = scorer
    assert produced == [pipeline.translate(line).best for line in lines]


def test_translate_file_writes_a_completion_that_spans_lines_on_one_line(stack, tmp_path):
    corpus, *_ = stack
    pipeline = make_pipeline(stack, client=None, generation=GenerationConfig(n_candidates=1))
    lines = [corpus[i].src_text for i in range(3)]
    completions = ["first line\nsecond line", "a\r\nb\rc", "plain"]
    pipeline.client = scripted_client(
        pipeline, stack, lines, lambda t: [completions[lines.index(t)]]
    )
    summary, produced, records = run_file(pipeline, tmp_path, lines)
    assert (summary.count, summary.failures) == (3, 0)
    assert produced == ["first line second line", "a b c", "plain"]
    # the audit record and the single caller keep the text as generated
    assert [json.loads(r)["best"] for r in records] == completions
    assert pipeline.translate(lines[0]).best == completions[0]


def test_a_run_without_a_scorer_fails_before_any_work(stack, tmp_path, monkeypatch):
    corpus, table, proj, index, _ = stack
    config = PipelineConfig(projection_seed=17, k=2, generation=GenerationConfig(n_candidates=2))
    pipeline = TranslationPipeline(
        index=index, table=table, projections=proj, config=config, client=None, scorer=None
    )
    calls = []
    for name in ("retrieve_topk", "retrieve_many"):
        monkeypatch.setattr(afsp.pipeline, name, lambda *args, **kw: calls.append(args))

    class Client:
        def generate_candidates(self, prompt, cfg):
            calls.append(prompt)
            return CandidateSet(fingerprint(prompt), ("a", "b"))

    pipeline.client = Client()
    message = "[rerank] no reranker model configured; set n_candidates=1 to skip reranking"
    with pytest.raises(StageError) as info:
        pipeline.translate(corpus[0].src_text)
    assert (info.value.stage, str(info.value)) == ("rerank", message)
    inp, out, audit = tmp_path / "in.txt", tmp_path / "out.txt", tmp_path / "audit.jsonl"
    inp.write_text("".join(corpus[i].src_text + "\n" for i in range(5)), encoding="utf-8")
    with pytest.raises(StageError) as info:
        pipeline.translate_file(inp, out, audit_path=audit)
    assert (info.value.stage, str(info.value)) == ("rerank", message)
    assert calls == []
    assert not out.exists() and not audit.exists()


def test_translate_file_blank_line_fails_alone(stack, tmp_path):
    corpus, *_ = stack
    pipeline = make_pipeline(
        stack, client=None, generation=GenerationConfig(n_candidates=1, max_in_flight=2)
    )
    texts = [corpus[i].src_text for i in range(6)]
    pipeline.client = scripted_client(pipeline, stack, texts, lambda t: [f"out {texts.index(t)}"])
    lines = texts[:3] + ["   "] + texts[3:]
    summary, produced, records = run_file(pipeline, tmp_path, lines)
    assert (summary.count, summary.failures) == (7, 1)
    assert produced == ["out 0", "out 1", "out 2", "", "out 3", "out 4", "out 5"]
    assert records[3] == '{"input": "   ", "error": "[retrieval] no tokens in \'   \'"}\n'
    assert [json.loads(r)["best"] for r in records[4:]] == ["out 3", "out 4", "out 5"]


def test_translate_file_input_not_utf8_leaves_outputs_alone(stack, tmp_path):
    corpus, *_ = stack
    pipeline = make_pipeline(stack, client=MockClient({}), generation=GenerationConfig(n_candidates=1))
    inp, out = tmp_path / "in.txt", tmp_path / "out.txt"
    good = "".join(p.src_text + "\n" for p in corpus[:40]).encode("utf-8")
    inp.write_bytes(good + b"\xff\xfe not utf-8\n")
    out.write_text("earlier output\n", encoding="utf-8")
    with pytest.raises(UnicodeDecodeError):
        pipeline.translate_file(inp, out)
    assert out.read_text(encoding="utf-8") == "earlier output\n"


@pytest.mark.parametrize("same", [("in", "out"), ("out", "audit"), ("in", "audit")])
def test_translate_file_rejects_one_file_in_two_roles(stack, tmp_path, same):
    corpus, *_ = stack
    pipeline = make_pipeline(stack, client=MockClient({}), generation=GenerationConfig(n_candidates=1))
    paths = {"in": tmp_path / "in.txt", "out": tmp_path / "out.txt", "audit": tmp_path / "a.jsonl"}
    paths[same[1]] = tmp_path / "sub" / ".." / paths[same[0]].name  # the same file, spelt otherwise
    (tmp_path / "sub").mkdir()
    paths["in"].write_text(corpus[0].src_text + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="must name different files"):
        pipeline.translate_file(paths["in"], paths["out"], audit_path=paths["audit"])
    assert paths["in"].read_text(encoding="utf-8") == corpus[0].src_text + "\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.txt", "sub"]


def test_translate_file_input_not_utf8_is_an_afsp_error(stack, tmp_path):
    pipeline = make_pipeline(stack, client=MockClient({}), generation=GenerationConfig(n_candidates=1))
    inp = tmp_path / "in.txt"
    inp.write_bytes(b"\xe4\xbd\xa0\xe5\xa5\xbd\n\xff\n")
    with pytest.raises(InputNotUtf8) as info:
        pipeline.translate_file(inp, tmp_path / "out.txt")
    err = info.value
    assert isinstance(err, AfspError) and isinstance(err, UnicodeDecodeError)
    assert (err.encoding, err.reason, err.path) == ("utf-8", "invalid start byte", inp)
    assert err.object[err.start : err.end] == b"\xff"
    assert str(err).startswith(f"{inp}: not UTF-8: 'utf-8' codec can't decode byte 0xff")
    assert not (tmp_path / "out.txt").exists()


def test_translate_file_fingerprint_mismatch_fails_every_line(stack, tmp_path):
    corpus, table, _, index, scorer = stack
    config = PipelineConfig(
        projection_seed=17, k=3, generation=GenerationConfig(n_candidates=1, max_in_flight=8)
    )
    pipeline = TranslationPipeline(
        index=index,
        table=table,
        projections=init_projections(32, seed=99),
        config=config,
        client=MockClient({}),
        scorer=scorer,
    )
    summary, produced, records = run_file(pipeline, tmp_path, [p.src_text for p in corpus[:5]])
    assert (summary.count, summary.failures) == (5, 5)
    assert produced == [""] * 5
    for record in records:
        assert json.loads(record)["error"].startswith("[retrieval] index was built with a different")


def test_translate_ranks_past_a_completion_without_utf8(stack):
    corpus, *_ = stack
    pipeline = make_pipeline(stack, client=None, generation=GenerationConfig(n_candidates=2))
    text = corpus[4].src_text
    surrogate = json.loads('"bad \\ud800 text"')
    pipeline.client = scripted_client(pipeline, stack, [text], lambda t: [surrogate, "good"])
    result = pipeline.translate(text)
    assert result.best == "good"
    assert [t for t, _ in result.candidates] == ["good"]


@pytest.fixture
def saved_config(stack, tmp_path):
    """A config naming the stack's artifacts, saved under tmp_path."""
    corpus, table, proj, index, scorer = stack
    save_table(table, tmp_path / "table.bin")
    save_index(index, tmp_path / "index.bin")
    save_model(scorer, tmp_path / "model.bin")
    return PipelineConfig(
        table_path=str(tmp_path / "table.bin"),
        index_path=str(tmp_path / "index.bin"),
        reranker_path=str(tmp_path / "model.bin"),
        projection_seed=17,
        generation=GenerationConfig(n_candidates=1),
    )


def test_with_block_closes_the_client_the_pipeline_opened(saved_config, monkeypatch):
    closed = []
    close = requests.Session.close
    monkeypatch.setattr(requests.Session, "close", lambda self: (closed.append(self), close(self)))
    with TranslationPipeline.from_config(saved_config) as pipeline:
        assert isinstance(pipeline.client, ChatCompletionsClient)
        session = pipeline.client._session
        pipeline.client = MockClient({})  # a swapped-in client is not the one it opened
    assert closed == [session]


def test_the_stack_load_and_the_index_build_hash_on_the_pool_of_beside(stack, saved_config, monkeypatch):
    corpus, table, proj, _, _ = stack
    threads = []
    table_fingerprint = afsp.retrieval.table_fingerprint

    def spy(*args):
        threads.append(threading.current_thread().name)
        return table_fingerprint(*args)

    monkeypatch.setattr(afsp.retrieval, "table_fingerprint", spy)
    load_retrieval_stack(saved_config)
    build_index(corpus, table, proj)
    assert len(threads) == 2
    assert all(name.startswith("afsp-bounds") for name in threads)


def test_pipeline_closes_only_the_client_it_opened(stack, saved_config):
    class ClosingClient(MockClient):
        closed = False

        def close(self):
            self.closed = True

    given = ClosingClient({})
    with TranslationPipeline.from_config(saved_config, client=given) as pipeline:
        assert pipeline.client is given
    assert not given.closed
    make_pipeline(stack, client=given).close()
    assert not given.closed


def test_config_defaults_match_standard_settings():
    config = PipelineConfig()
    assert config.weights == Weights(0.4, 0.4, 0.2)
    assert config.k == 3
    assert config.generation.n_candidates == 30
    assert config.normalize_scores is False
    assert len(fields(PipelineConfig)) == 9


def test_config_checks_k_and_weights_when_built():
    assert PipelineConfig(k=0).k == 0  # zero-shot
    with pytest.raises(ValueError, match="k must be >= 0"):
        PipelineConfig(k=-1)
    with pytest.raises(ValueError, match="k must be >= 0"):
        replace(PipelineConfig(), k=-2)
    with pytest.raises(ValueError, match="weights"):
        PipelineConfig(weights=Weights(-1.0, 0.0, 0.0))
    assert PipelineConfig(projection_seed=0).projection_seed == 0
    with pytest.raises(ValueError, match="projection seed must be >= 0"):
        PipelineConfig(projection_seed=-1)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"k": 2.5}, "k must be an integer"),
        ({"k": True}, "k must be an integer"),
        ({"normalize_scores": "false"}, "normalize_scores must be true or false"),
        ({"projection_seed": 1.0}, "projection_seed must be an integer"),
        ({"table_path": 5}, "table_path must be a path or None"),
        ({"weights": (1, 0, 0)}, "weights must be a Weights"),
        ({"lang_names": {"zh": 5}}, "lang_names.zh must be a string"),
        ({"lang_names": ["zh"]}, "lang_names must be a mapping"),
        ({"generation": {"n_candidates": 1}}, "generation must be a GenerationConfig"),
    ],
    ids=[
        "float-k", "bool-k", "string-normalize-scores", "float-projection-seed", "int-path",
        "tuple-weights", "int-lang-name", "list-lang-names", "dict-generation",
    ],
)
def test_config_checks_field_types_when_built(kwargs, message):
    with pytest.raises(ValueError, match=message):
        PipelineConfig(**kwargs)
    with pytest.raises(ValueError, match=message):
        replace(PipelineConfig(), **kwargs)


def test_config_takes_path_objects(tmp_path):
    config = PipelineConfig(table_path=tmp_path / "t.bin", index_path=None, reranker_path="m.bin")
    assert config.table_path == tmp_path / "t.bin"


def test_load_config_sections_and_unknowns(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(
        yaml.safe_dump(
            {
                "paths": {"table": "t.bin", "index": "i.bin", "reranker": "m.bin"},
                "retrieval": {"alphas": [0.5, 0.3, 0.2], "k": 5, "normalize_scores": True},
                "seeds": {"projection": 99},
                "lang_names": {"zh": "Mandarin"},
                "generation": {"endpoint": "http://x/v1", "n_candidates": 5, "temperature": 0.2},
            }
        ),
        encoding="utf-8",
    )
    config = load_config(path)
    assert config.table_path == "t.bin"
    assert config.index_path == "i.bin"
    assert config.reranker_path == "m.bin"
    assert config.weights == Weights(0.5, 0.3, 0.2)
    assert config.k == 5
    assert config.normalize_scores is True
    assert config.projection_seed == 99
    assert config.lang_names == {"zh": "Mandarin"}
    assert config.generation.n_candidates == 5
    assert config.generation.endpoint == "http://x/v1"
    assert config.generation.temperature == 0.2

    # ints are numbers too
    path.write_text("retrieval: {alphas: [1, 0, 0]}\ngeneration: {timeout: 5}\n", encoding="utf-8")
    config = load_config(path)
    assert config.weights == Weights(1.0, 0.0, 0.0)
    assert config.generation.timeout == 5

    path.write_text("", encoding="utf-8")
    assert load_config(path) == PipelineConfig()

    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump({"generation": {"no_such_field": 1}}), encoding="utf-8")
    with pytest.raises(ValueError):
        load_config(bad)
    bad.write_text(yaml.safe_dump({"retrieval": {"alphas": [1, 2]}}), encoding="utf-8")
    with pytest.raises(ValueError):
        load_config(bad)


@pytest.mark.parametrize(
    "text, message",
    [
        ("metrics: {tokenize: char}\n", "unknown config sections"),
        ("paths: {corpus: c.bin}\n", "unknown paths settings"),
        ("retrieval: {kk: 3}\n", "unknown retrieval settings"),
        ("seeds: {projecton: 17}\n", "unknown seeds settings"),
        ("seeds: {degrade: 1}\n", "unknown seeds settings"),
        ("generation: {n_candidate: 5}\n", "unknown generation settings"),
        ("1: {}\nfoo: {}\n", "unknown config sections"),
        ("generation: {1: 2, n_candidate: 5}\n", "unknown generation settings"),
        ("paths: [table\n", "not valid YAML"),
        ("- paths\n- seeds\n", "mapping of sections"),
        ("paths: 5\n", "section paths"),
        ("paths: {table: 5}\n", "section paths"),
        ("lang_names: [zh]\n", "section lang_names"),
        ("retrieval: {alphas: 0.4}\n", "section retrieval"),
        ("retrieval: {alphas: [[1], 0, 0]}\n", "section retrieval"),
        ("retrieval: {k: -1}\n", "k must be >= 0"),
        ("seeds: {projection: -1}\n", "section seeds: projection seed must be >= 0"),
        ("generation: {n_candidates: many}\n", "section generation"),
        ("generation: {retries: -1}\n", "section generation: retries must be >= 0"),
        ("generation: {timeout: 0}\n", "section generation: timeout must be > 0"),
        ("generation: {max_tokens: 0}\n", "section generation: max_tokens must be >= 1"),
        ("generation: {max_in_flight: 0}\n", "section generation: max_in_flight must be >= 1"),
        ("retrieval: {normalize_scores: \"false\"}\n", "section retrieval: normalize_scores must be"),
        ("retrieval: {normalize_scores: 1}\n", "section retrieval: normalize_scores must be"),
        ("retrieval: {k: 2.9}\n", "section retrieval: k must be an integer"),
        ("retrieval: {k: true}\n", "section retrieval: k must be an integer"),
        ("seeds: {projection: 1.9}\n", "section seeds: projection_seed must be an integer"),
        ("generation: {n_candidates: 2.5}\n", "section generation: n_candidates must be an integer"),
        ("generation: {retries: 1.5}\n", "section generation: retries must be an integer"),
        ("generation: {max_in_flight: false}\n", "section generation: max_in_flight must be an integer"),
        ("generation: {top_k: 4.0}\n", "section generation: top_k must be an integer"),
        ("retrieval: {alphas: [true, 0.5, 0]}\n", "section retrieval: alphas must be a finite number"),
        ("retrieval: {alphas: [1, \"0.5\", 0]}\n", "section retrieval: alphas must be a finite number"),
        ("retrieval: {alphas: [.nan, 0.5, 0]}\n", "section retrieval: alphas must be a finite number"),
        ("generation: {temperature: true}\n", "section generation: temperature must be a finite number"),
        ("generation: {temperature: .inf}\n", "section generation: temperature must be a finite number"),
        ("generation: {top_p: true}\n", "section generation: top_p must be a finite number"),
        ("generation: {top_p: \"0.9\"}\n", "section generation: top_p must be a finite number"),
        ("generation: {timeout: true}\n", "section generation: timeout must be a finite number"),
        ("generation: {timeout: \"30\"}\n", "section generation: timeout must be a finite number"),
        ("generation: {endpoint: 5}\n", "section generation: endpoint must be a string"),
        ("generation: {model: [m]}\n", "section generation: model must be a string"),
        ("lang_names: {zh: 5}\n", "section lang_names: lang_names.zh must be a string"),
        ("paths: {index: [i.bin]}\n", "section paths: index_path must be a path"),
    ],
    ids=[
        "unknown-section", "unknown-paths-key", "unknown-retrieval-key", "unknown-seeds-key",
        "removed-seeds-key", "unknown-generation-key", "mixed-type-sections",
        "mixed-type-generation-keys", "yaml-syntax", "top-level-list",
        "paths-not-mapping", "path-not-string", "lang-names-not-mapping", "alphas-not-list",
        "alpha-not-number", "negative-k", "negative-projection-seed", "n-candidates-not-number",
        "negative-retries", "zero-timeout", "zero-max-tokens", "zero-max-in-flight",
        "normalize-scores-string", "normalize-scores-int", "float-k", "bool-k",
        "float-projection-seed", "float-n-candidates", "float-retries", "bool-max-in-flight",
        "float-top-k", "bool-alpha", "string-alpha", "nan-alpha", "bool-temperature",
        "inf-temperature", "bool-top-p", "string-top-p", "bool-timeout", "string-timeout",
        "int-endpoint", "list-model", "int-lang-name", "list-path",
    ],
)
def test_load_config_rejects_with_value_error(tmp_path, text, message):
    path = tmp_path / "cfg.yaml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        load_config(path)


def test_load_config_rejects_a_language_code_yaml_reads_as_a_boolean(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("lang_names: {no: Norwegian, en: Anglais}\n", encoding="utf-8")
    with pytest.raises(ValueError, match="section lang_names: a lang_names code must be a string"):
        load_config(path)
    path.write_text('lang_names: {"no": Norwegian, en: Anglais}\n', encoding="utf-8")
    assert load_config(path).lang_names == {"no": "Norwegian", "en": "Anglais"}


def test_from_config_loads_artifacts(stack, tmp_path):
    corpus, table, proj, index, scorer = stack
    table_path = tmp_path / "table.bin"
    index_path = tmp_path / "index.bin"
    model_path = tmp_path / "model.bin"
    save_table(table, table_path)
    save_index(index, index_path)
    save_model(scorer, model_path)

    config = PipelineConfig(
        table_path=str(table_path),
        index_path=str(index_path),
        reranker_path=str(model_path),
        projection_seed=17,
        k=2,
        generation=GenerationConfig(n_candidates=1),
    )
    pipeline = TranslationPipeline.from_config(config, client=MockClient({}))
    text = corpus[3].src_text
    prompt = pipeline.build_prompt(text)
    pipeline.client = MockClient({fingerprint(prompt): ["loaded artifacts work"]})
    assert pipeline.translate(text).best == "loaded artifacts work"
    assert pipeline.src_lang_name == "Chinese"
    assert pipeline.tgt_lang_name == "English"

    with pytest.raises(ValueError):
        TranslationPipeline.from_config(PipelineConfig())


@pytest.mark.parametrize("k", [3, 0])
def test_from_config_rejects_another_projection_seed(saved_config, k):
    # checked when the stack loads, so a zero-shot run that never retrieves
    # is rejected too; the hashing thread is joined on the way out
    before = threading.active_count()
    with pytest.raises(FingerprintMismatch):
        TranslationPipeline.from_config(
            replace(saved_config, projection_seed=18, k=k), client=MockClient({})
        )
    assert threading.active_count() == before


def test_from_config_over_a_corrupt_index_joins_its_hashing_thread(saved_config):
    with open(saved_config.index_path, "r+b") as fh:
        fh.write(b"AFSPIDX0")
    before = threading.active_count()
    with pytest.raises(VersionMismatch):
        TranslationPipeline.from_config(saved_config, client=MockClient({}))
    assert threading.active_count() == before


def test_from_config_hashes_the_table_once_and_the_first_query_not_at_all(
    stack, saved_config, monkeypatch
):
    calls = []
    real = afsp.retrieval.table_fingerprint
    monkeypatch.setattr(
        afsp.retrieval, "table_fingerprint", lambda *a: calls.append(a) or real(*a)
    )
    text = stack[0][3].src_text
    before = threading.active_count()
    for _ in range(2):
        pipeline = TranslationPipeline.from_config(saved_config, client=MockClient({}))
        assert threading.active_count() == before
        hashed = len(calls)
        pipeline.client = MockClient({fingerprint(pipeline.build_prompt(text)): ["done"]})
        assert pipeline.translate(text).best == "done"
        assert len(calls) == hashed
    assert len(calls) == 2
