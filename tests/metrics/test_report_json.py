"""Tests for the SeriesTable digest."""

from repro.metrics.report import SeriesTable


def sample_table():
    table = SeriesTable(
        title="Figure X — demo", x_label="k", xs=[1, 2, 3],
    )
    table.add_series("mixed cells", [1, 2.5, "label"])
    table.add_series("floats", [0.1, float("nan"), 110.0])
    table.notes.append("paper: a note with unicode — §3.2")
    return table


class TestDigest:
    def test_stable_across_equal_tables(self):
        assert sample_table().digest() == sample_table().digest()

    def test_sensitive_to_values(self):
        table = sample_table()
        other = sample_table()
        other.series["mixed cells"][0] = 99
        assert table.digest() != other.digest()

    def test_sensitive_to_series_order(self):
        first = SeriesTable(title="t", x_label="x", xs=[1])
        first.add_series("a", [1])
        first.add_series("b", [2])
        second = SeriesTable(title="t", x_label="x", xs=[1])
        second.add_series("b", [2])
        second.add_series("a", [1])
        assert first.digest() != second.digest()
