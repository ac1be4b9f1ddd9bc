"""Quickstart: write a small Elog wrapper and run it through the façade.

Run with:  python examples/quickstart.py
"""

from dataclasses import replace

from repro import Session
from repro.html import parse_html
from repro.xmlgen import to_xml

PAGE = """
<html><body>
  <h1>Second-hand cameras</h1>
  <table class="offers">
    <tr><td class="model"><a href="/c/1">Reflexa 35</a></td><td class="price">$ 120.00</td></tr>
    <tr><td class="model"><a href="/c/2">Panorama II</a></td><td class="price">EUR 89.50</td></tr>
    <tr><td class="model">Boxcam (no link)</td><td class="price">$ 45.00</td></tr>
  </table>
</body></html>
"""

# An Elog wrapper: one pattern per concept, defined relative to its parent
# pattern, exactly as in Section 3 of the paper.
WRAPPER = r"""
offer(S, X)  <- document(_, S), subelem(S, ?.tr, X)
model(S, X)  <- offer(_, S), subelem(S, (?.td, [(class, model, exact)]), X)
price(S, X)  <- offer(_, S), subelem(S, (?.td, [(elementtext, \var[Y].*, regvar)]), X), isCurrency(Y)
link(S, X)   <- model(_, S), subelem(S, .a, X)
url(S, X)    <- link(_, S), subatt(S, href, X)
"""


def main() -> None:
    document = parse_html(PAGE, url="cameras.example/offers")
    session = Session()
    # A wrapper is a value: hiding a pattern from the XML makes a new program.
    program = replace(session.wrapper(WRAPPER).program, auxiliary_patterns={"link"})

    # 1. The uniform extraction result over the pattern instance base.
    result = session.extract(program, document=document)
    print("patterns extracted:", ", ".join(sorted(result.patterns())))
    for offer in result.instances("offer"):
        model = offer.find_all("model")
        price = offer.find_all("price")
        print(" -", model[0].text() if model else "?", "/", price[0].text() if price else "?")

    # 2. The XML Designer / Transformer output (the machine-friendly view);
    #    the result remembers the wrapper's auxiliary patterns by itself.
    print("\nXML output:\n")
    print(to_xml(result.to_xml(root_name="offers")))


if __name__ == "__main__":
    main()
