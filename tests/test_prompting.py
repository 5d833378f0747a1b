from collections import namedtuple
from pathlib import Path

import pytest

from afsp.errors import EmptyInput, EmptyOutput
from afsp.prompting import (
    extract_translation,
    lang_display_name,
    render_prompt,
)

GOLDEN = Path(__file__).parent / "data" / "prompt_k3.golden.txt"

# render_prompt's arguments, in order
Request = namedtuple("Request", "src_lang_name tgt_lang_name input_text demos")

K3_REQUEST = Request(
    src_lang_name="Chinese",
    tgt_lang_name="English",
    input_text="外交部发言人今天发表讲话。",
    demos=(
        ("中方对此表示欢迎。", "China welcomes this development."),
        ("双方同意加强对话。", "The two sides agreed to strengthen dialogue."),
        ("会谈在北京举行。", "The talks were held in Beijing."),
    ),
)


def test_render_k3_matches_golden_bytes():
    rendered = render_prompt(*K3_REQUEST)
    assert rendered.encode("utf-8") == GOLDEN.read_bytes()


def test_render_opens_with_translator_line():
    assert render_prompt(*K3_REQUEST).startswith("You are a professional translator")


def test_render_zero_shot_has_no_numbered_blocks():
    rendered = render_prompt("Chinese", "English", "你好。")
    assert "1." not in rendered
    assert rendered.count("Chinese text:") == 1
    assert rendered.endswith("English translation:")


def test_render_preserves_demo_order_and_src_before_tgt():
    rendered = render_prompt(*K3_REQUEST)
    positions = [rendered.index(src) for src, _ in K3_REQUEST.demos]
    assert positions == sorted(positions)
    for src, tgt in K3_REQUEST.demos:
        assert rendered.index(src) < rendered.index(tgt)


def test_render_passes_braces_through():
    rendered = render_prompt(
        "Chinese", "English", "含有{花括号}的句子", (("源{文本}", "target {with} braces"),)
    )
    assert "{花括号}" in rendered
    assert "target {with} braces" in rendered
    assert "{src_lang}" not in rendered
    assert "{demo_blocks}" not in rendered


def test_render_distinct_inputs_distinct_prompts():
    base = render_prompt(*K3_REQUEST)
    other = K3_REQUEST._replace(input_text="另一个句子。")
    assert render_prompt(*other) != base


def test_render_empty_input():
    with pytest.raises(EmptyInput):
        render_prompt("Chinese", "English", "   ")


def test_lang_display_name():
    assert lang_display_name("zh") == "Chinese"
    assert lang_display_name("en") == "English"
    assert lang_display_name("xx") == "xx"
    assert lang_display_name("zh", {"zh": "Mandarin"}) == "Mandarin"


def test_extract_strips_label():
    assert extract_translation("English translation: Hello.") == "Hello."


def test_extract_strips_whitespace_and_quotes():
    assert extract_translation("  Bonjour  ") == "Bonjour"
    assert extract_translation('"你好"') == "你好"
    assert extract_translation("“quoted”") == "quoted"


def test_extract_label_then_quotes():
    assert extract_translation('Chinese translation: "你好"') == "你好"


def test_extract_keeps_inner_content():
    # no label at the start: nothing stripped beyond whitespace
    text = 'He said "hello" to everyone.'
    assert extract_translation(text) == text
    # colon later in the sentence is left alone
    text = "Remember: always check twice."
    assert extract_translation(text) == text


def test_extract_empty_output():
    with pytest.raises(EmptyOutput):
        extract_translation("   ")
    with pytest.raises(EmptyOutput):
        extract_translation('English translation: ""')
