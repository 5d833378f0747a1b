"""Few-shot prompt rendering and model-output extraction.

The prompt template is fixed; adaptivity comes entirely from which
demonstrations fill it. The template lives in a versioned resource string so
golden tests can pin it byte-for-byte. Demonstration and input text are
inserted as format arguments, never re-parsed, so literal braces in user text
pass through untouched.
"""

from __future__ import annotations

import re

from .errors import EmptyInput, EmptyOutput

TEMPLATE_VERSION = 1

PROMPT_TEMPLATE_V1 = (
    "You are a professional translator. I will give you one or more examples of "
    "text fragments, where the first one is in {src_lang} and the second one is "
    "the translation of the first fragment into {tgt_lang}. These sentences will "
    "be displayed below.\n"
    "{demo_blocks}"
    "After the example pairs, I will provide a/an {src_lang} sentence and I would "
    "like you to translate it into {tgt_lang}. Please provide only the translation "
    "result without any additional comments, formatting, or chat content. "
    "Translate the text from {src_lang} to {tgt_lang}.\n"
    "{src_lang} text: {input_text}\n"
    "{tgt_lang} translation:"
)

DEMO_BLOCK_V1 = "{n}. {src_lang} text: {src_demo}\n{tgt_lang} translation: {tgt_demo}\n"

DEFAULT_LANG_NAMES = {
    "zh": "Chinese",
    "en": "English",
    "fr": "French",
    "de": "German",
    "es": "Spanish",
    "ja": "Japanese",
    "ko": "Korean",
    "ru": "Russian",
    "ar": "Arabic",
    "pt": "Portuguese",
    "it": "Italian",
}


def lang_display_name(code: str, overrides: dict[str, str] | None = None) -> str:
    """Human-readable language name for a corpus language code."""
    if overrides and code in overrides:
        return overrides[code]
    return DEFAULT_LANG_NAMES.get(code, code)


def render_prompt(
    src_lang_name: str,
    tgt_lang_name: str,
    input_text: str,
    demos: tuple[tuple[str, str], ...] = (),
) -> str:
    """Fill the fixed template with the demonstrations, (source, target)
    pairs ordered by descending relevance, and the input sentence."""
    if not input_text.strip():
        raise EmptyInput("input sentence is empty")
    blocks = "".join(
        DEMO_BLOCK_V1.format(
            n=i,
            src_lang=src_lang_name,
            tgt_lang=tgt_lang_name,
            src_demo=src,
            tgt_demo=tgt,
        )
        for i, (src, tgt) in enumerate(demos, start=1)
    )
    return PROMPT_TEMPLATE_V1.format(
        src_lang=src_lang_name,
        tgt_lang=tgt_lang_name,
        demo_blocks=blocks,
        input_text=input_text,
    )


_LABEL_RE = re.compile(r"^[^\n:：]{0,40}?\btranslation\s*[:：]\s*", re.IGNORECASE)

_QUOTE_PAIRS = (
    ('"', '"'),
    ("'", "'"),
    ("“", "”"),
    ("‘", "’"),
    ("「", "」"),
    ("『", "』"),
    ("«", "»"),
)


def extract_translation(raw: str) -> str:
    """Strip whitespace, a leading "<language> translation:" label, and one
    layer of surrounding quotes. Never rewrites the content itself."""
    text = raw.strip()
    text = _LABEL_RE.sub("", text, count=1).strip()
    for opening, closing in _QUOTE_PAIRS:
        if len(text) >= 2 and text.startswith(opening) and text.endswith(closing):
            text = text[1:-1].strip()
            break
    if not text:
        raise EmptyOutput(f"nothing left of model output {raw!r} after extraction")
    return text
